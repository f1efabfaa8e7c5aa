//! In-memory spans and counters recorded around calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the recorder
//! was created), the span that was open when it began (its parent), and
//! the id of the benchmark operation it belongs to. Spans stay in memory
//! and are written out once, at the end of the run. A span's *self time*
//! is its duration minus the part of that interval its children cover.
//!
//! A disabled recorder records nothing and never reads the clock, so
//! the same code runs traced and untraced.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cpg.origins`.
    pub name: &'static str,
    /// Operation id the span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder for one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u32>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recorder; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether spans and counters are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    /// Opens a span that closes when the guard drops. Spans must close
    /// in reverse order of opening, which scoped guards guarantee.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            op: self.op.get(),
            parent: open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Adds `value` to counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_default() += value;
        }
    }

    /// Raises counter `name` to at least `value`.
    pub fn max(&self, name: &'static str, value: f64) {
        if self.enabled {
            let mut c = self.counters.borrow_mut();
            let v = c.entry(name).or_default();
            *v = v.max(value);
        }
    }

    /// A copy of the recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// A copy of the counters.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.borrow().clone()
    }
}

/// Self time of every span, in seconds, index-parallel to `spans`:
/// the span's duration minus the union of its children's intervals
/// (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t;
    }
    out
}

/// Summed duration per span name, in seconds.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.dur_ns() as f64 / 1e9;
    }
    out
}

/// Writes one JSON object per span: index, name, op, parent, start and
/// end in nanoseconds, and self time in nanoseconds.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            (t * 1e9).round() as u64
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", None, 0, 1_000),
            span("a", Some(0), 100, 300),
            span("b", Some(0), 400, 900),
            span("b.inner", Some(2), 500, 600),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![300e-9, 200e-9, 400e-9, 100e-9]);
        let by = self_by_name(&spans);
        let sum = by["op"] + by["a"] + by["b"] + by["b.inner"];
        assert!(
            (sum - 1_000e-9).abs() < 1e-15,
            "self times sum to the root: {sum}"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", None, 100, 200),
            span("c1", Some(0), 50, 150),
            span("c2", Some(0), 120, 180),
            span("c3", Some(0), 170, 400),
        ];
        // Children cover [100, 200) entirely once clipped.
        assert_eq!(self_times(&spans)[0], 0.0);
        let spans = vec![span("p", None, 0, 100), span("c", Some(0), 10, 20)];
        assert_eq!(self_times(&spans)[0], 90e-9);
    }

    #[test]
    fn recorder_nests_spans_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.set_op(3);
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
            t.add("things", 2.0);
            t.add("things", 1.0);
            t.max("peak", 5.0);
            t.max("peak", 4.0);
        }
        let _after = t.span("after");
        drop(_after);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.counters()["things"], 3.0);
        assert_eq!(t.counters()["peak"], 5.0);

        let off = Tracer::new(false);
        drop(off.span("x"));
        off.add("things", 1.0);
        assert!(off.spans().is_empty() && off.counters().is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![span("op", None, 0, 10), span("a", Some(0), 2, 4)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":2"));
    }
}
