//! Per-request resource governance: budgets, deadlines and cancellation.
//!
//! A [`Budget`] fixes ceilings on the resources a request may consume; a
//! [`RequestContext`] carries the budget (plus the request's start instant
//! and an optional [`CancelToken`]) through
//! [`crate::SedaReader::execute_governed`].  The work ceilings are enforced
//! at the pipeline's counter sites — the Threshold-Algorithm loop in
//! `seda-topk`, the complete-result enumeration and connection discovery.
//! Output has one ceiling, `max_rows`, checked against a payload's
//! [`crate::ResponsePayload::rows`] and clipped in one place at the end of
//! the statement executor: a `TWIG`'s rows are its matches and a `CUBE`'s its
//! cells.  Two steps also read it early: a `TWIG` stops evaluating after the
//! document that crosses it, and a `CONNECTIONS` clips its tuples before
//! discovery, so its summary describes only the tuples it returns.  A `CUBE`'s
//! R(q) never reads it, so a clipped cube's cells keep their full aggregates.
//! A breach surfaces either as a typed [`SedaError::Limit`] naming the
//! exhausted resource, or, when the caller opts in via
//! [`RequestContext::allow_degraded`], as a partial response flagged
//! [`crate::ExecProfile::degraded`] carrying the exact prefix computed
//! before the breach.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seda_topk::{LimitBreach, SearchLimits};

use crate::error::SedaError;

/// Resource ceilings for one request.  `None` means unlimited; the default
/// budget is unlimited in every dimension, so governance is strictly opt-in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`RequestContext`] creation.
    pub deadline: Option<Duration>,
    /// Ceiling on sorted posting-list accesses of the top-k search.  The
    /// join reads only live entries — those of document components where
    /// every term has a match — so this counts those, not whole lists.
    pub max_sorted_accesses: Option<usize>,
    /// Ceiling on random-access score probes of the top-k search.
    pub max_random_accesses: Option<usize>,
    /// Ceiling on candidate tuples scored by the top-k search: the search
    /// stops once the candidates scored reach it.  The engine's own guard,
    /// [`SearchLimits::CANDIDATE_GUARD`], applies whatever this says; only a
    /// ceiling below the guard makes a stop the caller's (a degraded answer
    /// or [`SedaError::Limit`]).  At or above it, or unset, the guard's stop
    /// gives a best-effort answer with
    /// [`crate::ExecProfile::candidates_truncated`] filled.
    pub max_candidates: Option<usize>,
    /// Ceiling on label probes spent on connectivity checks and connection
    /// discovery.
    pub max_label_probes: Option<u64>,
    /// Ceiling on result rows across every statement shape: top-k tuples,
    /// context entries, connections, table rows, twig matches and cube cells.
    /// A `TWIG` stops evaluating after the document that crosses it.
    pub max_rows: Option<usize>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the sorted-access ceiling.
    pub fn with_max_sorted_accesses(mut self, max: usize) -> Self {
        self.max_sorted_accesses = Some(max);
        self
    }

    /// Sets the random-access ceiling.
    pub fn with_max_random_accesses(mut self, max: usize) -> Self {
        self.max_random_accesses = Some(max);
        self
    }

    /// Sets the candidate-tuple ceiling.
    pub fn with_max_candidates(mut self, max: usize) -> Self {
        self.max_candidates = Some(max);
        self
    }

    /// Sets the label-probe ceiling.
    pub fn with_max_label_probes(mut self, max: u64) -> Self {
        self.max_label_probes = Some(max);
        self
    }

    /// Sets the result-row ceiling.
    pub fn with_max_rows(mut self, max: usize) -> Self {
        self.max_rows = Some(max);
        self
    }
}

/// A monotonic stopwatch — the sanctioned wall-clock handle for timing code
/// outside this module.
///
/// The repository's custom lint (`cargo xtask lint`) forbids raw
/// `Instant::now()` calls outside `govern` and bench code so every clock read
/// is attributable to either request governance or explicit profiling.
/// Timing-hungry call sites (build phases, plan/exec splits) start a
/// `Stopwatch` and read elapsed seconds from it.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds elapsed since the stopwatch started.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Reads the clock once, returning the seconds elapsed so far and a new
    /// stopwatch anchored at that same read — the allocation-free way to time
    /// consecutive phases without drift between them.
    pub fn split(&self) -> (f64, Stopwatch) {
        let now = Instant::now();
        ((now - self.start).as_secs_f64(), Stopwatch { start: now })
    }
}

/// Shared cancellation flag: clone it, hand one clone to the request's
/// [`RequestContext`], and call [`CancelToken::cancel`] from any thread to
/// stop the request at its next governance check (surfaced as
/// [`SedaError::Cancelled`]).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; checked cooperatively at governance sites.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The shared flag, for plumbing into [`SearchLimits::cancel`].
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// Everything governing one request's execution: the [`Budget`], the start
/// instant the deadline counts from, the degraded-response opt-in and an
/// optional [`CancelToken`].
#[derive(Debug, Clone)]
pub struct RequestContext {
    budget: Budget,
    degraded_ok: bool,
    started: Instant,
    cancel: Option<CancelToken>,
}

impl RequestContext {
    /// A context enforcing `budget`, with the deadline clock starting now.
    pub fn new(budget: Budget) -> Self {
        RequestContext { budget, degraded_ok: false, started: Instant::now(), cancel: None }
    }

    /// A context with no ceilings at all (what ungoverned entry points use).
    pub fn unlimited() -> Self {
        RequestContext::new(Budget::unlimited())
    }

    /// Opts into degraded responses: a budget breach then returns the exact
    /// prefix computed so far with [`crate::ExecProfile::degraded`] set,
    /// instead of [`SedaError::Limit`].  Cancellation still errors.
    pub fn allow_degraded(mut self) -> Self {
        self.degraded_ok = true;
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when the caller opted into degraded (partial-prefix) responses.
    pub(crate) fn degraded_allowed(&self) -> bool {
        self.degraded_ok
    }

    /// True once the attached token (if any) has been cancelled.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().map(CancelToken::is_cancelled).unwrap_or(false)
    }

    /// Errors with [`SedaError::Cancelled`] once the token is cancelled.
    pub(crate) fn check_cancelled(&self) -> Result<(), SedaError> {
        if self.is_cancelled() {
            Err(SedaError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// The deadline breach, if the wall clock has already run out.
    pub(crate) fn deadline_breach(&self) -> Option<LimitBreach> {
        let deadline = self.budget.deadline?;
        let elapsed = self.started.elapsed();
        (elapsed >= deadline).then_some(LimitBreach {
            resource: "deadline",
            spent: elapsed.as_millis() as u64,
            budget: deadline.as_millis() as u64,
        })
    }

    /// The result-row breach for a payload of `rows` rows.
    pub(crate) fn row_breach(&self, rows: usize) -> Option<LimitBreach> {
        let max = self.budget.max_rows?;
        (rows > max).then_some(LimitBreach {
            resource: "result rows",
            spent: rows as u64,
            budget: max as u64,
        })
    }

    /// This context without its row ceiling — the same start instant,
    /// degraded opt-in, work ceilings and cancellation token — for a step
    /// whose rows are not the answer's: a `CUBE`'s R(q), whose every row its
    /// cells aggregate, so that `max_rows` bounds the cells and never the
    /// facts they sum.
    pub(crate) fn without_row_ceiling(&self) -> RequestContext {
        RequestContext { budget: Budget { max_rows: None, ..self.budget.clone() }, ..self.clone() }
    }

    /// The label-probe breach once connectivity checks outside the searcher
    /// (the complete-result step, connection discovery) have brought the
    /// request to `spent` probes — the ceiling the searcher enforces inside
    /// its own loop.
    pub(crate) fn label_probe_breach(&self, spent: u64) -> Option<LimitBreach> {
        let max = self.budget.max_label_probes?;
        (spent > max).then_some(LimitBreach { resource: "label probes", spent, budget: max })
    }

    /// True when the budget caps any work counter: sorted or random
    /// accesses, candidates or label probes.  The deadline and `max_rows`
    /// are no work ceilings.
    pub(crate) fn has_work_ceiling(&self) -> bool {
        let b = &self.budget;
        b.max_sorted_accesses.is_some()
            || b.max_random_accesses.is_some()
            || b.max_candidates.is_some()
            || b.max_label_probes.is_some()
    }

    /// The [`SearchLimits`] to hand the Threshold-Algorithm searcher: the
    /// budget's, with the engine's candidate guard folded into the candidate
    /// ceiling.
    pub(crate) fn search_limits(&self) -> SearchLimits {
        let guard = SearchLimits::CANDIDATE_GUARD;
        SearchLimits {
            deadline: self.budget.deadline.map(|d| self.started + d),
            max_sorted_accesses: self.budget.max_sorted_accesses,
            max_random_accesses: self.budget.max_random_accesses,
            max_tuples_scored: Some(self.budget.max_candidates.map_or(guard, |max| max.min(guard))),
            max_label_probes: self.budget.max_label_probes,
            cancel: self.cancel.as_ref().map(CancelToken::flag),
        }
    }

    /// The request's own part of a search's breach: a candidate stop is the
    /// engine guard's — cleared, the answer best-effort with its
    /// `candidates_truncated` filled — unless the caller's `max_candidates`
    /// lies below [`SearchLimits::CANDIDATE_GUARD`].  Every other breach is
    /// the caller's.
    pub(crate) fn caller_breach(&self, breach: Option<LimitBreach>) -> Option<LimitBreach> {
        let below_guard =
            self.budget.max_candidates.is_some_and(|max| max < SearchLimits::CANDIDATE_GUARD);
        breach.filter(|b| b.resource != "candidate tuples" || below_guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_builders_set_fields() {
        assert_eq!(Budget::default(), Budget::unlimited());
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_max_sorted_accesses(1)
            .with_max_random_accesses(2)
            .with_max_candidates(3)
            .with_max_label_probes(4)
            .with_max_rows(5);
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_sorted_accesses, Some(1));
        assert_eq!(b.max_random_accesses, Some(2));
        assert_eq!(b.max_candidates, Some(3));
        assert_eq!(b.max_label_probes, Some(4));
        assert_eq!(b.max_rows, Some(5));
    }

    #[test]
    fn stopwatch_split_is_monotone() {
        let w = Stopwatch::start();
        let (elapsed, next) = w.split();
        assert!(elapsed >= 0.0);
        assert!(next.elapsed_secs() <= w.elapsed_secs());
        assert!(w.elapsed_secs() >= elapsed);
    }

    #[test]
    fn cancel_token_flips_exactly_once_set() {
        let token = CancelToken::new();
        let ctx = RequestContext::unlimited().with_cancel_token(token.clone());
        assert!(!ctx.is_cancelled());
        assert!(ctx.check_cancelled().is_ok());
        token.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.check_cancelled(), Err(SedaError::Cancelled));
    }

    #[test]
    fn deadline_breach_reports_elapsed_and_budget_millis() {
        let ctx = RequestContext::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let breach = ctx.deadline_breach().expect("a zero deadline is always breached");
        assert_eq!(breach.resource, "deadline");
        let relaxed =
            RequestContext::new(Budget::unlimited().with_deadline(Duration::from_secs(3600)));
        assert!(relaxed.deadline_breach().is_none());
        assert!(RequestContext::unlimited().deadline_breach().is_none());
    }

    #[test]
    fn shape_breaches_fire_only_past_their_ceiling() {
        let ctx =
            RequestContext::new(Budget::unlimited().with_max_rows(2).with_max_label_probes(5));
        assert!(ctx.label_probe_breach(5).is_none());
        assert_eq!(ctx.label_probe_breach(6).unwrap().resource, "label probes");
        assert!(ctx.row_breach(2).is_none());
        assert_eq!(ctx.row_breach(3).unwrap().resource, "result rows");
        let unlimited = RequestContext::unlimited();
        assert!(unlimited.row_breach(usize::MAX).is_none());
    }

    #[test]
    fn search_limits_mirror_the_budget() {
        let ctx = RequestContext::new(
            Budget::unlimited()
                .with_deadline(Duration::from_secs(60))
                .with_max_sorted_accesses(10)
                .with_max_candidates(20)
                .with_max_label_probes(30),
        )
        .with_cancel_token(CancelToken::new());
        let limits = ctx.search_limits();
        assert!(limits.deadline.is_some());
        assert_eq!(limits.max_sorted_accesses, Some(10));
        assert_eq!(limits.max_random_accesses, None);
        assert_eq!(limits.max_tuples_scored, Some(20));
        assert_eq!(limits.max_label_probes, Some(30));
        assert!(limits.cancel.is_some());
        let none = RequestContext::unlimited().search_limits();
        assert!(none.deadline.is_none() && none.cancel.is_none());
        assert_eq!(none.max_sorted_accesses, None);
        assert_eq!(none.max_random_accesses, None);
        assert_eq!(none.max_tuples_scored, Some(SearchLimits::CANDIDATE_GUARD));
        assert_eq!(none.max_label_probes, None);
    }

    #[test]
    fn the_guard_owns_a_candidate_stop_unless_the_caller_set_a_lower_ceiling() {
        let guard = SearchLimits::CANDIDATE_GUARD;
        let owner = |budget: Budget| {
            let ctx = RequestContext::new(budget);
            let ceiling = ctx.search_limits().max_tuples_scored.unwrap_or(usize::MAX);
            let stop = LimitBreach {
                resource: "candidate tuples",
                spent: ceiling as u64,
                budget: ceiling as u64,
            };
            (ceiling, ctx.caller_breach(Some(stop)).map(|b| b.budget))
        };
        assert_eq!(owner(Budget::unlimited()), (guard, None));
        assert_eq!(owner(Budget::unlimited().with_max_candidates(guard)), (guard, None));
        assert_eq!(owner(Budget::unlimited().with_max_candidates(guard + 1)), (guard, None));
        let below = guard - 1;
        let lower = Budget::unlimited().with_max_candidates(below);
        assert_eq!(owner(lower), (below, Some(below as u64)));
        // Every other breach stays the caller's, under any candidate ceiling.
        let probes = LimitBreach { resource: "label probes", spent: 2, budget: 1 };
        let ctx = RequestContext::unlimited();
        assert_eq!(ctx.caller_breach(Some(probes.clone())), Some(probes));
        assert_eq!(ctx.caller_breach(None), None);
    }

    #[test]
    fn only_the_four_work_counters_are_work_ceilings() {
        let ceiling = |budget: Budget| RequestContext::new(budget).has_work_ceiling();
        assert!(!ceiling(Budget::unlimited()));
        assert!(!ceiling(Budget::unlimited().with_deadline(Duration::ZERO).with_max_rows(1)));
        assert!(!RequestContext::unlimited()
            .with_cancel_token(CancelToken::new())
            .has_work_ceiling());
        assert!(ceiling(Budget::unlimited().with_max_sorted_accesses(1)));
        assert!(ceiling(Budget::unlimited().with_max_random_accesses(1)));
        assert!(ceiling(Budget::unlimited().with_max_candidates(1)));
        assert!(ceiling(Budget::unlimited().with_max_label_probes(1)));
    }
}
