//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start and end (ns since the tracer was
//! made), the span that encloses it and the op it belongs to. Spans are
//! kept in a vector and written out once the run ends. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover; children may overlap (two worker processes inside
//! one campaign pass), so covered time is the union of their intervals.

use std::time::Instant;

use crate::json;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `world.run` or `campaign.store`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; `None` for pass-level work.
    pub op: Option<u64>,
}

impl Span {
    /// `end − start`, in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans, keeping them in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` of op `op`, nested under the
    /// innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in ns, in span order.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = span.parent.and_then(|p| children.get_mut(p)) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self times grouped by span name, names in first-seen order.
pub fn self_times_by_name(spans: &[Span]) -> Vec<(&'static str, Vec<u64>)> {
    let mut groups: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (span, ns) in spans.iter().zip(self_times(spans)) {
        match groups.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, list)) => list.push(ns),
            None => groups.push((span.name, vec![ns])),
        }
    }
    groups
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
pub fn spans_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let or_null = |x: Option<String>| x.unwrap_or_else(|| "null".to_string());
            format!(
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                or_null(s.parent.map(|p| p.to_string())),
                or_null(s.op.map(|o| o.to_string()))
            )
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // sticks out past the parent
            span("a.inner", 15, 20, Some(1)),
        ];
        // Children cover [10, 60] and [90, 100]: 60 ns of 100.
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let mut t = Tracer::new();
        let out = t.span("op", Some(7), |t| t.span("world.run", Some(7), |_| 42));
        assert_eq!(out, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn grouping_keeps_first_seen_order() {
        let spans = [
            span("op", 0, 10, None),
            span("x", 0, 4, Some(0)),
            span("op", 10, 30, None),
            span("x", 12, 14, Some(2)),
        ];
        let groups = self_times_by_name(&spans);
        assert_eq!(groups, vec![("op", vec![6, 18]), ("x", vec![4, 2])]);
    }
}
