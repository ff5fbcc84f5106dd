//! The traced run's spans, recorded in the benchmark around each call
//! it makes into a layer, plus a copy of the program's own `qrank_obs`
//! spans and counters for attribution inside those calls.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since [`Spans::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `crawl`.
    pub name: &'static str,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (0 while open).
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    records: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.records.len();
        self.records.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.records[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::ns).sum::<u64>() as f64 / 1e9
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.records.iter().filter(move |s| s.name == name)
    }

    /// Share of the window `[from_ns, to_ns]` covered by top-level spans
    /// (spans without a parent), clipped to the window.
    pub fn coverage(&self, from_ns: u64, to_ns: u64) -> f64 {
        if to_ns <= from_ns {
            return 0.0;
        }
        let covered: u64 = self
            .records
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
            .sum();
        covered as f64 / (to_ns - from_ns) as f64
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Sum of the `qrank_obs` counters whose names start with `prefix`.
pub fn obs_counter_sum(prefix: &str) -> u64 {
    qrank_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Seconds recorded by `qrank_obs` spans whose path ends in `leaf`.
pub fn obs_span_seconds(leaf: &str) -> f64 {
    qrank_obs::global()
        .snapshot()
        .histograms
        .iter()
        .filter(|(n, _)| {
            n.starts_with("span.") && (n.ends_with(&format!("/{leaf}")) || n[5..] == *leaf)
        })
        .map(|(_, h)| h.sum as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_counts_top_level_spans_clipped_to_the_window() {
        let s = Spans {
            origin: Instant::now(),
            records: vec![
                span("a", None, 0, 40),
                span("a.child", Some(0), 10, 30),
                span("b", None, 50, 120),
            ],
            open: Vec::new(),
        };
        // [0,100]: a covers 40, b covers 50 (clipped), the child adds nothing.
        assert!((s.coverage(0, 100) - 0.9).abs() < 1e-12);
        assert_eq!(s.coverage(5, 5), 0.0);
        assert!((s.seconds("b") - 70e-9).abs() < 1e-18);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        s.time("inner", || ());
        s.exit(outer);
        assert_eq!(s.records[1].parent, Some(outer));
        assert!(s.to_json().contains("\"name\":\"inner\",\"parent\":0"));
    }
}
