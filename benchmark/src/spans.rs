//! The traced run's span recorder and self-time fold.
//!
//! Spans are recorded from the harness's own files, around its calls
//! into each layer: name, start, end, the span that caused it and the
//! id of the end-to-end operation it belongs to. They stay in memory
//! and are written out as JSONL when the run ends. The harness is
//! single-threaded, so one `Rc<RefCell<_>>` handle is shared with the
//! counting store, which records true nesting inside `commit_wave`
//! and `load_committed`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use wave_obs::json::JsonObject;

/// One recorded span. Times are nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name: `op.*` for end-to-end operations, `<layer>.<call>`
    /// for calls into a layer.
    pub name: &'static str,
    /// Start, ns since recorder creation.
    pub start_ns: u64,
    /// End, ns since recorder creation.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Id shared by every span of one end-to-end operation.
    pub op: u64,
}

impl SpanRec {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    next_op: u64,
}

/// Handle of an open span, returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Shared, cheaply clonable span recorder. A disabled recorder
/// records nothing and costs one branch per call.
#[derive(Debug, Clone)]
pub struct Recorder(Rc<RefCell<Inner>>);

impl Recorder {
    /// Creates a recorder; `enabled` is its initial state.
    pub fn new(enabled: bool) -> Self {
        Recorder(Rc::new(RefCell::new(Inner {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        })))
    }

    /// Switches recording on or off (the traced run alternates, so
    /// one process measures its own tracing overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.0.borrow_mut().enabled = enabled;
    }

    /// Opens a span under whichever span is currently open. A span
    /// with no open parent starts a new operation id.
    pub fn begin(&self, name: &'static str) -> Open {
        let mut r = self.0.borrow_mut();
        if !r.enabled {
            return Open(None);
        }
        let parent = r.open.last().copied();
        let op = match parent {
            Some(p) => r.spans[p].op,
            None => {
                r.next_op += 1;
                r.next_op
            }
        };
        let now = r.epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        r.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        r.open.push(id);
        Open(Some(id))
    }

    /// Closes `span` (and, defensively, anything opened under it that
    /// was left open by an early return).
    pub fn end(&self, span: Open) {
        let Some(id) = span.0 else { return };
        let mut r = self.0.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = r.open.pop() {
            r.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.0.borrow().spans.clone()
    }

    /// Writes every span as one flat JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let r = self.0.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in r.spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.u64("id", id as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .i64("parent", s.parent.map_or(-1, |p| p as i64))
                .u64("op", s.op);
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    /// Spans folded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part of the span's
    /// interval that its direct children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// direct children's intervals clipped to its own, so overlapping
/// children are not subtracted twice. A parent index that does not
/// name an earlier span is ignored (the span counts as a root).
fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|p| *p < i) {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Folds a span forest into per-name totals of duration and self time.
pub fn fold_self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTime> {
    let mut out: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// For each root span name: `(sum of root durations, sum of self times
/// over the roots and all their descendants)`. With children that do
/// not overlap each other the two agree exactly; the traced run checks
/// they agree within 1%.
pub fn op_closure(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64)> {
    // Parents always precede children in recording order, so one
    // forward pass resolves every span to its root.
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(match s.parent.filter(|p| *p < i) {
            Some(p) => root_of[p],
            None => i,
        });
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, self_ns) in self_times(spans).into_iter().enumerate() {
        let e = out.entry(spans[root_of[i]].name).or_default();
        if root_of[i] == i {
            e.0 += spans[i].duration_ns();
        }
        e.1 += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; children 10..40 and 30..60 overlap by 10 and
        // cover 50 in total; a grandchild 12..20 sits in the first.
        let forest = vec![
            span("op.probe", 0, 100, None),
            span("index.probe", 10, 40, Some(0)),
            span("index.probe", 30, 60, Some(0)),
            span("disk.read", 12, 20, Some(1)),
        ];
        let folded = fold_self_times(&forest);
        assert_eq!(
            folded["op.probe"],
            NameTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            folded["index.probe"],
            NameTime {
                count: 2,
                total_ns: 60,
                self_ns: 52
            }
        );
        assert_eq!(folded["disk.read"].self_ns, 8);
    }

    #[test]
    fn missing_parent_counts_as_root_and_children_are_clipped() {
        let forest = vec![
            // Parent index out of range: treated as a root.
            span("op.scan", 0, 50, Some(99)),
            // Child sticks out of its parent on both sides.
            span("index.scan", 40, 80, Some(0)),
        ];
        let folded = fold_self_times(&forest);
        assert_eq!(folded["op.scan"].self_ns, 40);
        assert_eq!(folded["index.scan"].self_ns, 40);
    }

    #[test]
    fn closure_of_non_overlapping_forest_is_exact() {
        let forest = vec![
            span("op.commit", 0, 100, None),
            span("file.put", 10, 30, Some(0)),
            span("file.put", 40, 70, Some(0)),
            span("op.commit", 200, 260, None),
            span("file.put", 210, 220, Some(3)),
        ];
        let closure = op_closure(&forest);
        assert_eq!(closure["op.commit"], (160, 160));
    }

    #[test]
    fn recorder_nests_and_assigns_operation_ids() {
        let rec = Recorder::new(true);
        let a = rec.begin("op.probe");
        let b = rec.begin("index.probe");
        rec.end(b);
        rec.end(a);
        rec.set_enabled(false);
        let ignored = rec.begin("op.probe");
        rec.end(ignored);
        rec.set_enabled(true);
        rec.time("op.scan", || ());
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn end_closes_spans_left_open_below() {
        let rec = Recorder::new(true);
        let a = rec.begin("op.commit");
        let _leaked = rec.begin("file.put");
        rec.end(a);
        let c = rec.begin("op.scan");
        rec.end(c);
        assert_eq!(rec.snapshot()[2].parent, None);
    }
}
