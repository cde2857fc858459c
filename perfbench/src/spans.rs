//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a simulator layer, with
//! the span that was open when it started as its parent. Spans stay in
//! memory until the run ends; a layer's *self time* is its span durations
//! minus the part of each span its children cover, so self times of all
//! spans add up to the root span's duration with nothing counted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// Records spans (single-threaded; nesting follows call order) and named
/// counters.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// The counter `name` (0 when never added to).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids: Vec<Span> = children[i].iter().map(|&c| self.spans[c]).collect();
            *out.entry(s.name).or_insert(0.0) += self_time(s, &kids);
        }
        out
    }

    /// Summed duration of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Duration of `span` minus the union of its children's intervals,
/// clipped to the span.
pub fn self_time(span: &Span, children: &[Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end - span.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let parent = span(0.0, 10.0);
        // Overlapping children count once; a child poking past the parent
        // is clipped to it.
        let kids = [span(1.0, 3.0), span(2.0, 4.0), span(8.0, 12.0)];
        assert!((self_time(&parent, &kids) - 5.0).abs() < 1e-12);
        assert_eq!(self_time(&parent, &[]), 10.0);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.time("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        let b = t.enter("b");
        t.time("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        t.exit(b);
        t.exit(root);
        let selfs = t.self_seconds();
        let sum: f64 = selfs.values().sum();
        assert!((sum - t.total_seconds("root")).abs() < 1e-9);
        assert!(selfs["a"] > 0.0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
