//! In-memory span recorder for the traced run.
//!
//! A span is `(name, cell, start, end, parent)` around one call into a
//! layer of the program (or one benchmark phase). Spans are kept in a
//! `Vec` while the benchmark runs and written out once, at exit, as JSON
//! lines. A disabled tracer records nothing and never allocates, so the
//! end-to-end run pays one branch per call site.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans whose name starts with this prefix mark benchmark phases
/// (set-up, measured pass, correctness gate). Every other span wraps a
/// layer call and counts towards coverage.
const PHASE_PREFIX: &str = "phase.";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn is_phase(&self) -> bool {
        self.name.starts_with(PHASE_PREFIX)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[idx].end_ns = end;
            let top = inner.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens span `name`; `cell` names the unit of work inside the layer
    /// and is only built when tracing is on.
    pub fn span(&self, name: &'static str, cell: impl FnOnce() -> String) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = inner.stack.last().copied();
        inner.spans.push(Span {
            name,
            cell: cell(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        inner.stack.push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Closed spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.borrow();
        debug_assert!(inner.stack.is_empty(), "every span is closed");
        inner.spans.clone()
    }
}

/// Summary of a finished trace.
pub struct TraceSummary {
    pub spans: Vec<Span>,
    /// Self time per span: its duration minus the time its children cover.
    pub self_ns: Vec<u64>,
    /// Index of each span's root (outermost) span.
    root: Vec<usize>,
}

impl TraceSummary {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    // Spans come from one thread and nest, so siblings
                    // never overlap and their durations add up to the
                    // covered time.
                    child_ns[p] += s.dur_ns();
                    // A parent opens before its children: `root[p]` is set.
                    root.push(root[p]);
                }
                None => root.push(i),
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect();
        TraceSummary {
            spans,
            self_ns,
            root,
        }
    }

    /// Spans recorded inside root spans named `phase`.
    pub fn in_phase<'a>(&'a self, phase: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .zip(&self.root)
            .filter(move |&(_, &r)| self.spans[r].name == phase)
            .map(|(s, _)| s)
    }

    /// Total duration of spans named `name` inside phase `phase`, in ms.
    pub fn total_ms(&self, phase: &str, name: &str) -> f64 {
        let ns: u64 = self
            .in_phase(phase)
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Wall time covered by layer spans, in ns: the outermost span that is
    /// not a phase, on every path from a root.
    pub fn layer_covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.is_phase() && s.parent.is_none_or(|p| self.spans[p].is_phase()))
            .map(Span::dur_ns)
            .sum()
    }

    /// The trace as JSON lines, one span per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"cell\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.name, s.cell, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _a = t.span("kernel.score", || unreachable!("cell is lazy"));
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_gives_parents_self_time_and_coverage() {
        let t = Tracer::new(true);
        {
            let _p = t.span("phase.pass", String::new);
            {
                let _a = t.span("serve.run", || "a".into());
                let _b = t.span("kernel.score", || "b".into());
            }
            let _c = t.span("serve.run", || "c".into());
        }
        let s = TraceSummary::new(t.spans());
        assert_eq!(s.spans.len(), 4);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(1));
        assert_eq!(s.spans[3].parent, Some(0));
        assert_eq!(s.count("serve.run"), 2);
        assert_eq!(s.in_phase("phase.pass").count(), 4);
        assert_eq!(s.in_phase("phase.setup").count(), 0);
        let run_ms = (s.spans[1].dur_ns() + s.spans[3].dur_ns()) as f64 / 1e6;
        assert!((s.total_ms("phase.pass", "serve.run") - run_ms).abs() < 1e-9);
        assert_eq!(
            s.self_ns[1],
            s.spans[1].dur_ns() - s.spans[2].dur_ns(),
            "self time excludes the child"
        );
        assert_eq!(
            s.layer_covered_ns(),
            s.spans[1].dur_ns() + s.spans[3].dur_ns(),
            "nested layer spans are not counted twice"
        );
        assert_eq!(s.to_jsonl("w").lines().count(), 4);
    }
}
