//! Hierarchical span tracing of the request and build lifecycles.
//!
//! A [`Tracer`] is a lightweight per-owner span recorder: the reader path
//! owns one per [`crate::SedaReader`] (so tracing never contends across
//! threads) and the build path runs one per [`crate::SedaEngine::build`].
//! Spans are entered and exited around the pipeline's phases — parse, plan,
//! each plan step, twig evaluation, star-schema derivation, cube
//! aggregation, and the build's substrate and audit phases — and land as
//! flat [`SpanRecord`]s (name, depth, start offset, wall time, counter
//! deltas) in [`crate::ExecProfile::spans`] and
//! [`crate::BuildProfile::spans`].
//!
//! Design constraints, in order:
//!
//! - **Near-zero cost when disabled** (the reader default): [`Tracer::enter`]
//!   is one branch returning a sentinel [`SpanToken`], and every exit
//!   short-circuits on it.
//! - **Unwind safety**: [`Tracer::exit`] closes *every* span opened after its
//!   token, so a panic unwound through `catch_unwind` (or a failpoint-armed
//!   panic) can never leave the open stack corrupted — the outer exit (or
//!   [`Tracer::reset`], called next to the reader's scratch rebuild) squares
//!   the books.  The proptest suite pins this for arbitrary enter/exit
//!   sequences.
//! - **Bounded storage**: at most [`Tracer::CAP`] spans are kept per request;
//!   further enters are counted in [`Tracer::dropped`] rather than recorded.
//!
//! Timestamps come from the sanctioned [`Stopwatch`] discipline (`cargo
//! xtask lint` confines raw `Instant::now` reads to `govern`), as offsets
//! from the tracer's last [`Tracer::begin`].

use crate::govern::Stopwatch;
use crate::response::ExecProfile;

/// The span-name taxonomy.  Spans are named through these constants so
/// transcripts and tests never drift on spelling.
pub mod span {
    /// Textual request parsing ([`crate::SedaRequest::parse`]).
    pub const PARSE: &str = "parse";
    /// Planning: the request lowered to its plan.
    pub const PLAN: &str = "plan";
    /// Whole plan execution (parent of the per-step spans).
    pub const EXECUTE: &str = "execute";
    /// Threshold-Algorithm top-k search (sorted/random access batches and
    /// oracle probes happen inside; their counters land in the span delta).
    pub const SEARCH: &str = "search";
    /// Context-summary bucket generation.
    pub const CONTEXT_SUMMARY: &str = "context-summary";
    /// Pairwise connection discovery over a top-k result.
    pub const DISCOVER_CONNECTIONS: &str = "discover-connections";
    /// Complete-result enumeration (context combinations × twig/graph rows).
    pub const COMPLETE_RESULTS: &str = "complete-results";
    /// Structural twig evaluation.
    pub const TWIG_EVALUATE: &str = "twig-evaluate";
    /// Star-schema derivation and instantiation.
    pub const DERIVE_STAR_SCHEMA: &str = "derive-star-schema";
    /// Cube aggregation over the fact table.
    pub const AGGREGATE: &str = "aggregate";
    /// XML parsing of [`crate::SedaEngine::build_from_sources`] (build path,
    /// first; a build from a parsed collection has no parse).
    pub const BUILD_PARSE: &str = "build:parse";
    /// Data-graph construction (build path).
    pub const BUILD_GRAPH: &str = "build:data-graph";
    /// Node full-text index construction (build path; on the second thread
    /// of a two-thread build, recorded once that thread is joined).
    pub const BUILD_NODE_INDEX: &str = "build:node-index";
    /// Keyword→context index construction (build path).
    pub const BUILD_CONTEXT_INDEX: &str = "build:context-index";
    /// Post-build structural audit (build path; at two threads the node
    /// index's audit runs on the second thread, and the span is the wall
    /// time of the whole phase).
    pub const BUILD_VERIFY: &str = "build:audit-verify";
}

/// Work-counter deltas attributed to one span: how much of the profile's
/// total each phase consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCounters {
    /// Sorted posting-list accesses within the span.
    pub sorted_accesses: usize,
    /// Random-access score probes within the span.
    pub random_accesses: usize,
    /// Candidate tuples scored within the span.
    pub tuples_scored: usize,
    /// Connectivity-oracle probes (label entries, parent steps) within the
    /// span.
    pub label_probes: u64,
    /// Nodes of the documents twig evaluation visited within the span, each
    /// counted once: the whole collection for a `TWIG` statement (less the
    /// documents whose root element is not the pattern's anchored root), and
    /// for a same-root `RESULTS` / `CUBE` only the documents the node index
    /// says can hold a match — so a selective term shows as a small count.
    pub nodes_visited: usize,
    /// Result rows produced within the span (fact rows derived, for the
    /// star-schema derivation; fact rows scanned, for the aggregation).
    pub rows: usize,
}

impl SpanCounters {
    /// The counter delta between two profile observations (`after` minus
    /// `before`), saturating at zero.
    pub fn delta(before: &ExecProfile, after: &ExecProfile) -> Self {
        SpanCounters {
            sorted_accesses: after.sorted_accesses.saturating_sub(before.sorted_accesses),
            random_accesses: after.random_accesses.saturating_sub(before.random_accesses),
            tuples_scored: after.tuples_scored.saturating_sub(before.tuples_scored),
            label_probes: after.label_probes.saturating_sub(before.label_probes),
            nodes_visited: 0,
            rows: 0,
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SpanCounters::default()
    }

    /// Renders the non-zero counters as a compact `k=v` list (empty string
    /// when all are zero).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (name, value) in [
            ("sorted", self.sorted_accesses as u64),
            ("random", self.random_accesses as u64),
            ("scored", self.tuples_scored as u64),
            ("probes", self.label_probes),
            ("visited", self.nodes_visited as u64),
            ("rows", self.rows as u64),
        ] {
            if value > 0 {
                parts.push(format!("{name}={value}"));
            }
        }
        parts.join(" ")
    }
}

/// One closed span: a named phase with its nesting depth, start offset from
/// the tracer's epoch, measured wall time and attributed counter deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// Phase name (see [`span`]).
    pub name: String,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Seconds from the tracer's epoch to span entry.
    pub start_secs: f64,
    /// Seconds spent inside the span.
    pub wall_secs: f64,
    /// Work-counter deltas attributed to the span.
    pub counters: SpanCounters,
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`] /
/// [`Tracer::exit_with`].  A disabled (or capacity-dropped) enter returns a
/// sentinel token whose exit is free.
#[derive(Debug, Clone, Copy)]
#[must_use = "unexited spans are closed only at take_spans()/reset()"]
pub struct SpanToken {
    /// Open-stack depth at enter time; exit truncates back to it.
    open_depth: usize,
    /// Index of the span in the record buffer, `usize::MAX` when sentinel.
    index: usize,
}

impl SpanToken {
    const DISABLED: SpanToken = SpanToken { open_depth: 0, index: usize::MAX };
}

/// A per-owner hierarchical span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    spans: Vec<SpanRecord>,
    /// Indices of currently open spans, innermost last.
    open: Vec<usize>,
    dropped: usize,
}

impl Tracer {
    /// Bound on spans kept per request; enters past it are counted in
    /// [`Tracer::dropped`] instead of recorded.
    pub const CAP: usize = 512;

    /// A disabled tracer (the reader default — enters cost one branch).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// An enabled tracer (what the build path and `EXPLAIN ANALYZE` use).
    pub fn enabled() -> Self {
        let mut tracer = Tracer::disabled();
        tracer.enabled = true;
        tracer
    }

    /// Turns recording on or off.  Open spans and records are kept; callers
    /// toggling mid-request should [`Tracer::reset`] first.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans dropped over [`Tracer::CAP`] since the last begin/reset.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Starts a fresh trace: clears all records and open spans and re-anchors
    /// the epoch clock.
    pub fn begin(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.dropped = 0;
        self.clock = Stopwatch::start();
    }

    /// [`Tracer::begin`], but only when nothing has been recorded yet — the
    /// re-entrant form used by inner pipeline layers that may or may not run
    /// under an outer span.
    pub fn begin_if_idle(&mut self) {
        if self.spans.is_empty() && self.open.is_empty() {
            self.begin();
        }
    }

    /// Opens a span named `name`; returns the token its exit consumes.
    pub fn enter(&mut self, name: &str) -> SpanToken {
        if !self.enabled {
            return SpanToken::DISABLED;
        }
        let start_secs = self.clock.elapsed_secs();
        let Some(index) = self.push(name, start_secs, 0.0) else {
            return SpanToken::DISABLED;
        };
        let open_depth = self.open.len();
        self.open.push(index);
        SpanToken { open_depth, index }
    }

    /// Appends a span at the current nesting depth and returns its index;
    /// `None` when recording is off, or when the trace is full (counted in
    /// [`Tracer::dropped`]).
    fn push(&mut self, name: &str, start_secs: f64, wall_secs: f64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= Self::CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(SpanRecord {
            name: name.to_string(),
            depth: self.open.len(),
            start_secs,
            wall_secs,
            counters: SpanCounters::default(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes the token's span (and any span opened after it that was never
    /// exited — the unwind-safety guarantee) with zero counter deltas.
    pub fn exit(&mut self, token: SpanToken) {
        self.exit_with(token, SpanCounters::default());
    }

    /// [`Tracer::exit`], attributing `counters` to the token's span.
    pub fn exit_with(&mut self, token: SpanToken, counters: SpanCounters) {
        if token.index == usize::MAX {
            return;
        }
        let now = self.clock.elapsed_secs();
        while self.open.len() > token.open_depth {
            let Some(index) = self.open.pop() else { break };
            if let Some(record) = self.spans.get_mut(index) {
                record.wall_secs = (now - record.start_secs).max(0.0);
                if index == token.index {
                    record.counters = counters;
                }
            }
        }
    }

    /// The clock span offsets are measured on: hand a copy to another thread
    /// to time a phase there, then [`Tracer::record`] it.
    pub(crate) fn clock(&self) -> Stopwatch {
        self.clock
    }

    /// Records a closed span timed elsewhere — `start_secs` read from
    /// [`Tracer::clock`] — at the current nesting depth.
    pub(crate) fn record(&mut self, name: &str, start_secs: f64, wall_secs: f64) {
        self.push(name, start_secs, wall_secs);
    }

    /// Closes any span still open (with the current clock) and drains the
    /// records, leaving the tracer idle.
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        let now = self.clock.elapsed_secs();
        while let Some(index) = self.open.pop() {
            if let Some(record) = self.spans.get_mut(index) {
                record.wall_secs = (now - record.start_secs).max(0.0);
            }
        }
        self.dropped = 0;
        std::mem::take(&mut self.spans)
    }

    /// Discards all records and open spans (called next to the reader's
    /// scratch rebuild after a contained panic, so a poisoned trace never
    /// leaks into the next request).
    pub fn reset(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.dropped = 0;
    }
}

/// Renders one span tree as indented transcript lines (two spaces per
/// nesting level, wall time in milliseconds, non-zero counters appended).
pub fn render_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for record in spans {
        let indent = "  ".repeat(record.depth + 1);
        let counters = record.counters.render();
        let suffix = if counters.is_empty() { String::new() } else { format!(" — {counters}") };
        out.push_str(&format!(
            "{indent}[{}] {:.3}ms{suffix}\n",
            record.name,
            record.wall_secs * 1e3
        ));
    }
    out
}

/// Renders the `EXPLAIN ANALYZE` transcript: the plan transcript followed by
/// the profile's wall split, row count and degraded flag, then the executed
/// span tree.
pub fn render_analyzed(plan_transcript: &str, profile: &ExecProfile) -> String {
    let mut out = String::from(plan_transcript);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&format!(
        "analyze: {:.3}ms plan, {:.3}ms exec, {} row(s){}\n",
        profile.plan_secs * 1e3,
        profile.exec_secs * 1e3,
        profile.rows,
        if profile.degraded { " [degraded]" } else { "" },
    ));
    out.push_str(&render_spans(&profile.spans));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let token = t.enter(span::SEARCH);
        t.exit(token);
        assert!(t.take_spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn nested_spans_record_depth_and_counters() {
        let mut t = Tracer::enabled();
        t.begin();
        let outer = t.enter(span::EXECUTE);
        let inner = t.enter(span::SEARCH);
        t.exit_with(inner, SpanCounters { sorted_accesses: 5, ..SpanCounters::default() });
        t.exit(outer);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].depth), (span::EXECUTE, 0));
        assert_eq!((spans[1].name.as_str(), spans[1].depth), (span::SEARCH, 1));
        assert_eq!(spans[1].counters.sorted_accesses, 5);
        assert!(spans[0].wall_secs >= spans[1].wall_secs);
        assert!(render_spans(&spans).contains("[search]"));
        assert!(render_spans(&spans).contains("sorted=5"));
    }

    #[test]
    fn exiting_an_outer_token_closes_abandoned_inner_spans() {
        let mut t = Tracer::enabled();
        t.begin();
        let outer = t.enter("outer");
        let _abandoned = t.enter("inner-left-open");
        // Simulates an unwind: the inner exit never runs.
        t.exit(outer);
        assert_eq!(t.open_spans(), 0);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.wall_secs >= 0.0));
    }

    #[test]
    fn capacity_overflow_counts_drops_instead_of_growing() {
        let mut t = Tracer::enabled();
        t.begin();
        for _ in 0..(Tracer::CAP + 10) {
            let token = t.enter("tick");
            t.exit(token);
        }
        assert_eq!(t.dropped(), 10);
        assert_eq!(t.take_spans().len(), Tracer::CAP);
    }

    #[test]
    fn take_spans_closes_open_spans_and_reset_clears() {
        let mut t = Tracer::enabled();
        t.begin();
        let _open = t.enter("left-open");
        let spans = t.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(t.open_spans(), 0);
        let _open = t.enter("left-open-again");
        t.reset();
        assert_eq!(t.open_spans(), 0);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn counter_deltas_saturate_and_render_compactly() {
        let before = ExecProfile { sorted_accesses: 10, label_probes: 7, ..ExecProfile::default() };
        let after = ExecProfile { sorted_accesses: 15, label_probes: 5, ..ExecProfile::default() };
        let delta = SpanCounters::delta(&before, &after);
        assert_eq!(delta.sorted_accesses, 5);
        assert_eq!(delta.label_probes, 0, "negative deltas saturate at zero");
        assert_eq!(delta.render(), "sorted=5");
        assert!(SpanCounters::default().is_zero());
        assert_eq!(SpanCounters::default().render(), "");
    }

    #[test]
    fn render_analyzed_appends_the_span_tree_to_the_plan() {
        let profile = ExecProfile {
            plan_secs: 0.001,
            exec_secs: 0.002,
            rows: 3,
            spans: vec![SpanRecord {
                name: span::SEARCH.to_string(),
                depth: 0,
                start_secs: 0.0,
                wall_secs: 0.002,
                counters: SpanCounters { rows: 3, ..SpanCounters::default() },
            }],
            ..ExecProfile::default()
        };
        let out = render_analyzed("plan: TOPK over 1 term(s): (name, *)\n  1. step\n", &profile);
        assert!(out.contains("plan: TOPK"));
        assert!(out.contains("analyze:"));
        assert!(out.contains("3 row(s)\n"), "{out}");
        assert!(out.contains("[search] 2.000ms — rows=3"));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One randomised tracer operation.
        #[derive(Debug, Clone)]
        enum Op {
            Enter,
            /// Exit the i-th (mod live) outstanding token.
            Exit(usize),
            /// Enter a span, then unwind a panic through `catch_unwind`
            /// without exiting it — the failpoint/panic-containment shape.
            PanicInside,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::Enter),
                Just(Op::Enter),
                (0usize..8).prop_map(Op::Exit),
                (0usize..8).prop_map(Op::Exit),
                Just(Op::PanicInside),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Arbitrary enter/exit sequences — including exits unwound
            /// through `catch_unwind` and out-of-order exits — never corrupt
            /// the span stack or leak open spans.
            #[test]
            fn arbitrary_sequences_never_corrupt_the_stack(
                ops in proptest::collection::vec(op_strategy(), 0..40),
            ) {
                let mut t = Tracer::enabled();
                t.begin();
                let mut tokens: Vec<SpanToken> = Vec::new();
                for op in ops {
                    match op {
                        Op::Enter => tokens.push(t.enter("op")),
                        Op::Exit(i) => {
                            if !tokens.is_empty() {
                                let token = tokens.remove(i % tokens.len());
                                t.exit(token);
                            }
                        }
                        Op::PanicInside => {
                            let result = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| {
                                    let _token = t.enter("doomed");
                                    panic!("injected");
                                }),
                            );
                            prop_assert!(result.is_err());
                        }
                    }
                }
                let spans = t.take_spans();
                prop_assert_eq!(t.open_spans(), 0, "no span may leak open");
                for s in &spans {
                    prop_assert!(s.wall_secs >= 0.0);
                    prop_assert!(s.start_secs >= 0.0);
                    prop_assert!(s.depth < Tracer::CAP);
                }
                // A drained tracer starts the next request clean.
                t.begin();
                let token = t.enter("next");
                t.exit(token);
                prop_assert_eq!(t.take_spans().len(), 1);
            }
        }
    }
}
