//! Spans recorded around calls into the program's public functions.
//!
//! A span has a name, a start, an end and a parent; spans of one operation
//! share its id. Spans stay in memory and are written out once, when the
//! run ends. A span's self time is its duration minus the part of it that
//! its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer boundary, e.g. `bounds.refute`.
    pub name: &'static str,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

/// Totals of all spans with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean self time in microseconds (0 without spans).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (share one epoch between
    /// the tracers of concurrent clients).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Tracer::close).
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end.max(span.start_ns);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(op, name, parent);
        let value = f();
        self.close(span);
        value
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        totals
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The spans as one JSON array of `{op, name, parent, start_ns,
    /// end_ns, self_ns}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                op: 1,
                name: "op",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                op: 1,
                name: "a",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                op: 1,
                name: "b",
                parent: Some(0),
                start_ns: 30,
                end_ns: 50,
            },
            Span {
                op: 1,
                name: "c",
                parent: Some(2),
                start_ns: 35,
                end_ns: 45,
            },
        ];
        assert_eq!(t.self_times(), vec![60, 30, 10, 10]);
        let totals = t.totals();
        assert_eq!(totals["op"].self_ns, 60);
        assert_eq!(totals["b"].total_ns, 20);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open(1, "op", None);
        a.close(root);
        let mut b = Tracer::new(epoch);
        let root = b.open(2, "op", None);
        let child = b.open(2, "child", Some(root));
        b.close(child);
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.to_json().contains("\"name\":\"child\",\"parent\":1"));
    }
}
