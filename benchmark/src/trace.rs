//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into each
//! layer of the program; they are kept in memory and written out when the run
//! ends.  A span carries its name, start, end, the span that caused it and
//! the identifier of the round it belongs to, so the spans of one round share
//! an identifier.

use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) span.  Times are microseconds from the trace's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `topk.search`.
    pub name: String,
    /// Microseconds from the trace origin to entry.
    pub start_us: f64,
    /// Microseconds from the trace origin to exit.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one round.
    pub round_id: u32,
}

impl Span {
    /// Wall time of the span in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory trace: a flat span list plus the stack of open spans.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round_id: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose origin is now.
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), round_id: 0 }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a root span and starts a new round: the root and every span
    /// entered before it exits share a fresh round identifier.
    pub fn enter_round(&mut self, name: &str) -> usize {
        self.round_id += 1;
        self.enter(name)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_us();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            round_id: self.round_id,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` (and any span opened after it that is still open).
    pub fn exit(&mut self, index: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let index = self.enter(name);
        let value = f();
        self.exit(index);
        value
    }

    /// Records an already-measured span (used to copy the program's own spans
    /// into the trace) as a child of `parent`.
    pub fn record(&mut self, name: &str, start_us: f64, end_us: f64, parent: Option<usize>) {
        let round_id = parent.map_or(self.round_id, |p| self.spans[p].round_id);
        self.spans.push(Span { name: name.to_string(), start_us, end_us, parent, round_id });
    }

    /// All spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in microseconds: its duration minus the part
    /// of its interval that its child spans cover.  Overlapping children
    /// (parallel work) are counted once, and a child is clipped to its
    /// parent's interval.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_us.max(p.start_us);
                let end = span.end_us.min(p.end_us);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for &(start, end) in intervals.iter() {
                    if end <= reach {
                        continue;
                    }
                    covered += end - start.max(reach);
                    reach = end;
                }
                span.duration_us() - covered
            })
            .collect()
    }

    /// Share of the root spans named `root` that their descendants cover:
    /// `1 − Σ root self time / Σ root duration`.  `NaN` without such roots.
    pub fn coverage(&self, root: &str) -> f64 {
        let self_times = self.self_times_us();
        let (mut own, mut total) = (0.0, 0.0);
        for (span, self_us) in self.spans.iter().zip(&self_times) {
            if span.parent.is_none() && span.name == root {
                own += self_us;
                total += span.duration_us();
            }
        }
        if total > 0.0 {
            1.0 - own / total
        } else {
            f64::NAN
        }
    }

    /// The trace as a JSON array of span objects, each with its self time.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times_us())
            .map(|(s, self_us)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(self_us)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                    ("round_id", Json::Int(u64::from(s.round_id))),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(spans: &[(&str, f64, f64, Option<usize>)]) -> Trace {
        let mut trace = Trace::new();
        for &(name, start, end, parent) in spans {
            trace.record(name, start, end, parent);
        }
        trace
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let trace = trace_of(&[
            ("round", 0.0, 100.0, None),
            ("a", 10.0, 30.0, Some(0)),
            ("b", 50.0, 90.0, Some(0)),
        ]);
        assert_eq!(trace.self_times_us(), vec![40.0, 20.0, 40.0]);
        assert!((trace.coverage("round") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers overlap on [20, 40]; a third child is nested inside the
        // first; a fourth sticks out past the parent's end and is clipped.
        let trace = trace_of(&[
            ("round", 0.0, 100.0, None),
            ("w1", 10.0, 40.0, Some(0)),
            ("w2", 20.0, 60.0, Some(0)),
            ("inner", 15.0, 25.0, Some(0)),
            ("late", 90.0, 120.0, Some(0)),
            ("grandchild", 12.0, 18.0, Some(1)),
        ]);
        let self_times = trace.self_times_us();
        // Covered: [10, 60] ∪ [90, 100] = 60.
        assert_eq!(self_times[0], 40.0);
        // A grandchild only reduces its own parent.
        assert_eq!(self_times[1], 24.0);
        assert_eq!(self_times[2], 40.0);
    }

    #[test]
    fn live_spans_nest_and_share_the_round_id() {
        let mut trace = Trace::new();
        let root = trace.enter_round("round");
        trace.span("a", || std::hint::black_box(1 + 1));
        let outer = trace.enter("b");
        trace.span("c", || ());
        trace.exit(outer);
        trace.exit(root);
        let next = trace.enter_round("round");
        trace.exit(next);
        let spans = trace.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[..4].iter().all(|s| s.round_id == 1));
        assert_eq!(spans[4].round_id, 2);
        assert_eq!(spans[4].parent, None);
        for (span, self_us) in spans.iter().zip(trace.self_times_us()) {
            assert!(span.end_us >= span.start_us);
            assert!(self_us >= 0.0 && self_us <= span.duration_us());
        }
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut trace = Trace::new();
        let root = trace.enter_round("round");
        let _leaked = trace.enter("leaked");
        trace.exit(root);
        assert!(trace.spans().iter().all(|s| s.end_us >= s.start_us));
        let again = trace.enter("top");
        assert_eq!(trace.spans()[again].parent, None);
    }
}
