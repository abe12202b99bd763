//! Engine-wide metrics: one typed record of request counters and
//! log-bucketed latency histograms, aggregated per statement kind.
//!
//! A [`MetricsRegistry`] is a struct of atomic fields: per statement kind
//! (indexed by [`Statement`], labelled by [`Statement::name`]) the requests,
//! the rows returned and a latency [`Histogram`]; engine-wide the request
//! errors, budget breaches, degraded responses, cancellations and contained
//! panics.  Every request is recorded exactly once — by
//! `MetricsRegistry::record` with its statement and outcome, or by
//! `MetricsRegistry::record_unparsed` when its text names no statement — and
//! read back through typed accessors.  Recording never allocates and never
//! takes a lock.  The build's numbers (documents, label and posting bytes)
//! are not copied here: [`crate::SedaEngine::build_profile`] holds them.
//!
//! Latency is recorded in [`Histogram`]s with an HDR-style bucket ladder:
//! eight linear buckets for sub-8µs values, then eight sub-buckets per
//! power-of-two octave (≤ 12.5 % relative quantile error), all in one flat
//! atomic array.
//!
//! [`MetricsRegistry::snapshot`] is the one rendering, and the one place each
//! metric name is spelled: deterministic JSON sorted by `(name, label)`.
//!
//! # Invariant catalog (substrate `metrics`)
//!
//! | class | invariant |
//! |---|---|
//! | `histogram-buckets` | bucket counts sum to the recorded count; bucket bounds strictly increase |
//! | `histogram-minmax` | recorded min ≤ max when non-empty; empty histograms keep their sentinel min/max |
//! | `snapshot-deterministic` | two consecutive snapshots of a quiescent registry are identical |

use std::sync::atomic::{AtomicU64, Ordering};

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};

use crate::error::SedaError;
use crate::request::Statement;
use crate::response::SedaResponse;

const SUBSTRATE: &str = "metrics";

/// Linear buckets for values below the first octave.
const LINEAR_BUCKETS: usize = 8;
/// Sub-buckets per power-of-two octave.
const SUB_BUCKETS: usize = 8;
/// Octaves covered before values clamp into the last bucket (the ladder
/// reaches past 2³⁵ µs ≈ 9.5 hours, far beyond any request latency).
const OCTAVES: usize = 32;
/// Total buckets of the fixed ladder.
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUB_BUCKETS;

/// A log-bucketed latency histogram over unsigned microseconds: a fixed
/// HDR-style bucket ladder (flat atomic array, no allocation on record) plus
/// exact count/sum/min/max.  Quantiles are bucket upper bounds clamped to the
/// observed `[min, max]`, so the relative error stays within one sub-bucket
/// (≤ 12.5 %).
// surface: type in a public signature (`MetricsRegistry::latency`)
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Inclusive upper bound of each bucket, strictly increasing.  Stored
    /// (rather than recomputed) so the structural audit can check — and the
    /// seeded-corruption suite can break — the ladder's monotonicity.
    bounds: [u64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Inclusive upper bound of ladder bucket `i`.
fn ladder_bound(i: usize) -> u64 {
    if i < LINEAR_BUCKETS {
        i as u64
    } else {
        let octave = (i - LINEAR_BUCKETS) / SUB_BUCKETS;
        let sub = ((i - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + 1 + sub) << octave
    }
}

/// Ladder bucket index of value `v`.
fn ladder_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let octave = msb - 3;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let sub = ((v >> octave) as usize) - SUB_BUCKETS;
    LINEAR_BUCKETS + octave * SUB_BUCKETS + sub
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            bounds: std::array::from_fn(ladder_bound),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (microseconds).
    fn observe_micros(&self, v: u64) {
        self.buckets[ladder_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one value given in seconds (clamped at zero).
    fn observe_secs(&self, secs: f64) {
        self.observe_micros((secs.max(0.0) * 1e6) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (microseconds).
    fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, `None` when empty.
    fn min_micros(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest recorded value, `None` when empty.
    fn max_micros(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in microseconds: the upper bound of the
    /// bucket the cumulative count crosses `⌈q·count⌉` in, clamped to the
    /// observed `[min, max]`.  Returns 0 for an empty histogram.
    fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        let mut estimate = self.bounds[BUCKETS - 1];
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                estimate = self.bounds[i];
                break;
            }
        }
        let lo = self.min.load(Ordering::Relaxed);
        let hi = self.max.load(Ordering::Relaxed);
        estimate.clamp(lo.min(hi), hi)
    }

    /// This histogram's invariant violations, labelled `what` in details.
    fn violations(&self, what: &str) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let bucket_sum: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        let count = self.count();
        if bucket_sum != count {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "histogram-buckets",
                format!("{what}: bucket counts sum to {bucket_sum}, recorded count is {count}"),
            ));
        }
        if let Some(w) = self.bounds.windows(2).position(|w| w[0] >= w[1]) {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "histogram-buckets",
                format!(
                    "{what}: bucket bounds not strictly increasing at {w} ({} >= {})",
                    self.bounds[w],
                    self.bounds[w + 1]
                ),
            ));
        }
        let (min, max) = (self.min.load(Ordering::Relaxed), self.max.load(Ordering::Relaxed));
        let minmax_ok = if count == 0 { min == u64::MAX && max == 0 } else { min <= max };
        if !minmax_ok {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "histogram-minmax",
                format!("{what}: min {min} / max {max} inconsistent with count {count}"),
            ));
        }
        violations
    }

    /// Test-only corruption: adds `delta` to bucket `i` without touching the
    /// recorded count (breaks the `histogram-buckets` sum invariant).
    #[doc(hidden)]
    pub fn corrupt_bucket(&self, i: usize, delta: u64) {
        self.buckets[i].fetch_add(delta, Ordering::Relaxed);
    }

    /// Test-only corruption: swaps two bucket bounds (breaks the
    /// `histogram-buckets` monotonicity invariant).
    #[doc(hidden)]
    pub fn corrupt_swap_bounds(&mut self, i: usize, j: usize) {
        self.bounds.swap(i, j);
    }

    /// Test-only corruption: forces min above max (breaks the
    /// `histogram-minmax` invariant).
    #[doc(hidden)]
    pub fn corrupt_minmax(&self) {
        self.min.store(u64::MAX - 1, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.count.fetch_add(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// One statement kind's request metrics.
#[derive(Debug, Default)]
struct StatementMetrics {
    requests: AtomicU64,
    rows_returned: AtomicU64,
    latency: Histogram,
}

/// The engine-wide metrics record: per statement kind and engine-wide
/// counters plus per-kind latency histograms, all atomically updated.
// surface: type in a public signature (`SedaEngine::metrics`)
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// One slot per statement kind, indexed by `Statement::kind`.
    statements: [StatementMetrics; Statement::NAMES.len()],
    request_errors: AtomicU64,
    budget_breaches: AtomicU64,
    degraded_responses: AtomicU64,
    cancellations: AtomicU64,
    panics_contained: AtomicU64,
}

fn bump(cell: &AtomicU64) {
    cell.fetch_add(1, Ordering::Relaxed);
}

fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

impl MetricsRegistry {
    /// A registry with every value zeroed.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one request's outcome under its statement kind: the request,
    /// and then either its rows, latency and degradation or its error and
    /// the error's kind (budget breach, cancellation, contained panic).
    pub(crate) fn record(&self, statement: &Statement, outcome: &Result<SedaResponse, SedaError>) {
        let slot = &self.statements[statement.kind()];
        bump(&slot.requests);
        match outcome {
            Ok(response) => {
                slot.rows_returned.fetch_add(response.profile.rows as u64, Ordering::Relaxed);
                slot.latency.observe_secs(response.profile.total_secs());
                if response.profile.degraded {
                    bump(&self.degraded_responses);
                }
            }
            Err(err) => {
                bump(&self.request_errors);
                match err {
                    SedaError::Limit { .. } => bump(&self.budget_breaches),
                    SedaError::Cancelled => bump(&self.cancellations),
                    SedaError::Internal(_) => bump(&self.panics_contained),
                    _ => {}
                }
            }
        }
    }

    /// Records a request whose text did not parse: an error of no statement.
    pub(crate) fn record_unparsed(&self) {
        bump(&self.request_errors);
    }

    /// Requests of `statement`'s kind, failed ones included.
    pub fn requests(&self, statement: &Statement) -> u64 {
        load(&self.statements[statement.kind()].requests)
    }

    /// End-to-end latency of the successful requests of `statement`'s kind.
    pub fn latency(&self, statement: &Statement) -> &Histogram {
        &self.statements[statement.kind()].latency
    }

    /// Requests that returned an error, unparsed text included.
    pub fn request_errors(&self) -> u64 {
        load(&self.request_errors)
    }

    /// Budget ceilings hit ([`SedaError::Limit`] surfaced).
    pub fn budget_breaches(&self) -> u64 {
        load(&self.budget_breaches)
    }

    /// Panics contained into [`SedaError::Internal`].
    pub fn panics_contained(&self) -> u64 {
        load(&self.panics_contained)
    }

    /// Test-only corruption access: the latency histogram of `statement`'s
    /// kind, so the seeded-corruption suite can reach the `corrupt_*` hooks.
    #[doc(hidden)]
    pub fn latency_mut(&mut self, statement: &Statement) -> &mut Histogram {
        &mut self.statements[statement.kind()].latency
    }

    /// Every counter as `(name, label, value)`; engine-wide counters carry
    /// the empty label.
    fn counters(&self) -> Vec<(&'static str, &'static str, u64)> {
        let mut counters = vec![
            ("seda_request_errors_total", "", load(&self.request_errors)),
            ("seda_budget_breaches_total", "", load(&self.budget_breaches)),
            ("seda_degraded_responses_total", "", load(&self.degraded_responses)),
            ("seda_cancellations_total", "", load(&self.cancellations)),
            ("seda_panics_contained_total", "", load(&self.panics_contained)),
        ];
        for (label, slot) in Statement::NAMES.into_iter().zip(&self.statements) {
            counters.push(("seda_requests_total", label, load(&slot.requests)));
            counters.push(("seda_rows_returned_total", label, load(&slot.rows_returned)));
        }
        counters
    }

    /// Every histogram as `(name, label, histogram)`.
    fn histograms(&self) -> impl Iterator<Item = (&'static str, &'static str, &Histogram)> {
        let slots = Statement::NAMES.into_iter().zip(&self.statements);
        slots.map(|(label, slot)| ("seda_request_latency_seconds", label, &slot.latency))
    }

    /// Renders the whole record as deterministic JSON: entries sorted by
    /// `(name, label)`, histograms summarised as count/sum/min/max and the
    /// p50/p95/p99 quantiles (all in integer microseconds).
    fn snapshot(&self) -> String {
        let mut counters = self.counters();
        counters.sort();
        let mut histograms: Vec<_> = self.histograms().collect();
        histograms.sort_by_key(|&(name, label, _)| (name, label));

        let counters = counters.iter().map(|(name, label, value)| {
            format!(r#"    {{"name": "{name}", "label": "{label}", "value": {value}}}"#)
        });
        let histograms = histograms.iter().map(|(name, label, h)| {
            format!(
                r#"    {{"name": "{name}", "label": "{label}", "count": {}, "sum_us": {}, "min_us": {}, "max_us": {}, "p50_us": {}, "p95_us": {}, "p99_us": {}}}"#,
                h.count(),
                h.sum_micros(),
                h.min_micros().unwrap_or(0),
                h.max_micros().unwrap_or(0),
                h.quantile_micros(0.50),
                h.quantile_micros(0.95),
                h.quantile_micros(0.99),
            )
        });
        let mut out = String::from("{\n  \"counters\": [\n");
        out.push_str(&counters.collect::<Vec<_>>().join(",\n"));
        out.push_str("\n  ],\n  \"histograms\": [\n");
        out.push_str(&histograms.collect::<Vec<_>>().join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Verifies the registry's structural invariants: every histogram's
    /// bucket/count consistency and bound monotonicity
    /// (`histogram-buckets`), min/max sanity (`histogram-minmax`), and
    /// snapshot determinism (`snapshot-deterministic`).  Quiescent fresh
    /// registries always pass.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        for (name, label, histogram) in self.histograms() {
            violations.extend(histogram.violations(&format!("{name}{{{label}}}")));
        }
        if self.snapshot() != self.snapshot() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "snapshot-deterministic",
                "two consecutive snapshots of a quiescent registry differ".to_string(),
            ));
        }
        finish(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_bounds_are_strictly_increasing_and_cover_the_index_map() {
        let h = Histogram::new();
        assert!(h.bounds.windows(2).all(|w| w[0] < w[1]));
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = ladder_index(v);
            assert!(i < BUCKETS);
            // The bucket's bound is an upper estimate (within one sub-bucket).
            if i < BUCKETS - 1 {
                assert!(ladder_bound(i) as u128 * 2 >= v as u128, "bound({i}) too far below {v}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_recorded_values() {
        let h = Histogram::new();
        for ms in 1..=100u64 {
            h.observe_micros(ms * 1_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min_micros(), Some(1_000));
        assert_eq!(h.max_micros(), Some(100_000));
        let p50 = h.quantile_micros(0.50);
        assert!((40_000..=60_000).contains(&p50), "p50 was {p50}");
        let p99 = h.quantile_micros(0.99);
        assert!((90_000..=100_000).contains(&p99), "p99 was {p99}");
        assert_eq!(h.quantile_micros(1.0), 100_000);
        assert_eq!(Histogram::new().quantile_micros(0.5), 0);
    }

    fn statement(text: &str) -> Statement {
        crate::SedaRequest::parse(text).unwrap().statement
    }

    fn answer(rows: usize, degraded: bool) -> Result<SedaResponse, SedaError> {
        let mut response = SedaResponse {
            payload: crate::ResponsePayload::Explain(String::new()),
            profile: Default::default(),
        };
        response.profile.rows = rows;
        response.profile.degraded = degraded;
        Ok(response)
    }

    #[test]
    fn registry_records_each_outcome_under_its_statement_kind() {
        let m = MetricsRegistry::new();
        let (topk, twig) = (statement("TOPK 3 FOR (a, *)"), statement("TWIG /a"));
        m.record(&topk, &answer(2, false));
        m.record(&topk, &answer(5, true));
        m.record(&topk, &Err(SedaError::Cancelled));
        m.record(&twig, &Err(SedaError::Limit { resource: "rows", spent: 2, budget: 1 }));
        m.record_unparsed();
        assert_eq!(
            (
                m.requests(&topk),
                load(&m.statements[topk.kind()].rows_returned),
                m.latency(&topk).count()
            ),
            (3, 7, 2)
        );
        assert_eq!(
            (
                m.requests(&twig),
                load(&m.statements[twig.kind()].rows_returned),
                m.latency(&twig).count()
            ),
            (1, 0, 0)
        );
        assert_eq!(m.requests(&statement("CONTEXTS FOR (a, *)")), 0);
        assert_eq!((m.request_errors(), m.budget_breaches(), load(&m.cancellations)), (3, 1, 1));
        assert_eq!((load(&m.degraded_responses), m.panics_contained()), (1, 0));
        m.verify().unwrap();
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let m = MetricsRegistry::new();
        m.record(&statement("TWIG /a"), &answer(1, false));
        let a = m.snapshot();
        assert_eq!(a, m.snapshot());
        let budget = a.find("seda_budget_breaches_total").unwrap();
        let requests = a.find("seda_requests_total").unwrap();
        assert!(budget < requests, "snapshot entries must sort by name");
        assert!(a.contains(r#""name": "seda_requests_total", "label": "TWIG", "value": 1"#));
        assert!(
            a.contains(r#""name": "seda_request_latency_seconds", "label": "TWIG", "count": 1"#)
        );
        assert_eq!(a.matches(r#""name": "#).count(), 5 + 3 * Statement::NAMES.len());
    }

    #[test]
    fn corrupted_histograms_fail_their_audit() {
        let (topk, twig) = (statement("TOPK 3 FOR (a, *)"), statement("TWIG /a"));
        let mut m = MetricsRegistry::new();
        m.latency(&topk).observe_micros(500);
        m.verify().unwrap();
        m.latency_mut(&topk).corrupt_bucket(0, 3);
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "histogram-buckets"), "{violations:?}");

        let mut m = MetricsRegistry::new();
        m.latency(&twig).observe_micros(500);
        m.latency_mut(&twig).corrupt_minmax();
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "histogram-minmax"), "{violations:?}");

        let mut m = MetricsRegistry::new();
        m.latency_mut(&twig).corrupt_swap_bounds(0, BUCKETS - 1);
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.substrate == "metrics"), "{violations:?}");
    }
}
