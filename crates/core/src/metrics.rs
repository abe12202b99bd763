//! Engine-wide metrics: named counters, gauges and log-bucketed latency
//! histograms, aggregated per statement type.
//!
//! The ROADMAP's serving-layer scorecard ("QPS, p50/p99/p999 per workload")
//! needs a metrics substrate before any of those numbers can exist; this
//! module is that substrate.  A [`MetricsRegistry`] owns a *fixed catalog* of
//! metrics — every name is registered exactly once at construction and
//! referenced through the typed constants in [`names`] (the `metric-name`
//! rule of `cargo xtask lint` rejects stringly-typed call sites) — and every
//! value lives in an atomic, so recording never allocates and never takes a
//! lock.
//!
//! Latency is recorded in [`Histogram`]s with an HDR-style bucket ladder:
//! eight linear buckets for sub-8µs values, then eight sub-buckets per
//! power-of-two octave (≤ 12.5 % relative quantile error), all in one flat
//! atomic array.
//!
//! Snapshots are deterministic: [`MetricsRegistry::snapshot`] renders the
//! catalog as JSON sorted by `(name, label)`, and
//! [`MetricsRegistry::render_prometheus`] emits the conventional text
//! exposition format for the future serving layer.
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

/// The typed metric-name catalog.  Every metric the engine records is named
/// here exactly once; call sites pass these constants (never string
/// literals — `cargo xtask lint` enforces it).
pub mod names {
    /// Requests executed, per statement type.
    pub const REQUESTS_TOTAL: &str = "seda_requests_total";
    /// Requests that returned an error (any statement).
    pub const REQUEST_ERRORS_TOTAL: &str = "seda_request_errors_total";
    /// Budget ceilings hit ([`crate::SedaError::Limit`] surfaced).
    pub const BUDGET_BREACHES_TOTAL: &str = "seda_budget_breaches_total";
    /// Requests answered with a degraded (partial-prefix) payload.
    pub const DEGRADED_RESPONSES_TOTAL: &str = "seda_degraded_responses_total";
    /// Requests stopped by a [`crate::CancelToken`].
    pub const CANCELLATIONS_TOTAL: &str = "seda_cancellations_total";
    /// Panics contained into [`crate::SedaError::Internal`].
    pub const PANICS_CONTAINED_TOTAL: &str = "seda_panics_contained_total";
    /// Result rows returned, per statement type.
    pub const ROWS_RETURNED_TOTAL: &str = "seda_rows_returned_total";
    /// End-to-end request latency histogram, per statement type.
    pub const REQUEST_LATENCY_SECONDS: &str = "seda_request_latency_seconds";
    /// Documents in the engine's collection (set at build time).
    pub const ENGINE_DOCUMENTS: &str = "seda_engine_documents";
    /// Bytes held by the connectivity-oracle labels (set at build time).
    pub const ORACLE_LABEL_BYTES: &str = "seda_oracle_label_bytes";
    /// Bytes held by the node index, its whole heap — dictionary, posting
    /// arena, posting paths, path runs, side tables, token arena (set at
    /// build time).
    pub const POSTING_BYTES: &str = "seda_posting_bytes";
}

/// The statement labels the per-statement metrics are registered under —
/// kept in sync with [`crate::Statement::name`].
const STATEMENT_LABELS: [&str; 6] = ["TOPK", "CONTEXTS", "CONNECTIONS", "RESULTS", "TWIG", "CUBE"];

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
    pub fn observe_micros(&self, v: u64) {
        self.buckets[ladder_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one value given in seconds (clamped at zero).
    pub fn observe_secs(&self, secs: f64) {
        self.observe_micros((secs.max(0.0) * 1e6) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (microseconds).
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min_micros(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest recorded value, `None` when empty.
    pub fn max_micros(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in microseconds: the upper bound of the
    /// bucket the cumulative count crosses `⌈q·count⌉` in, clamped to the
    /// observed `[min, max]`.  Returns 0 for an empty histogram.
    pub fn quantile_micros(&self, q: f64) -> u64 {
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

/// A monotonically increasing counter handle (borrowed from the registry).
#[derive(Debug, Clone, Copy)]
pub struct Counter<'a> {
    cell: &'a AtomicU64,
}

impl Counter<'_> {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (borrowed from the registry).
#[derive(Debug, Clone, Copy)]
pub struct Gauge<'a> {
    cell: &'a AtomicU64,
}

impl Gauge<'_> {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One registered scalar metric.
#[derive(Debug)]
struct Scalar {
    name: &'static str,
    label: &'static str,
    value: AtomicU64,
}

/// One registered histogram metric.
#[derive(Debug)]
struct HistogramEntry {
    name: &'static str,
    label: &'static str,
    histogram: Histogram,
}

/// The engine-wide registry: a fixed catalog of counters, gauges and latency
/// histograms, all atomically updated through borrowed handles.  Lookups by
/// an unregistered `(name, label)` pair return a live no-op slot that is
/// excluded from snapshots, so recording never panics and never allocates.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Vec<Scalar>,
    gauges: Vec<Scalar>,
    histograms: Vec<HistogramEntry>,
    /// Shared sink for unregistered counter/gauge lookups.
    noop: AtomicU64,
    /// Shared sink for unregistered histogram lookups.
    noop_histogram: Histogram,
}

impl MetricsRegistry {
    /// A registry holding the full engine catalog (see [`names`]), with every
    /// value zeroed.
    pub fn new() -> Self {
        let mut counters = Vec::new();
        let mut register = |name: &'static str, label: &'static str| {
            counters.push(Scalar { name, label, value: AtomicU64::new(0) });
        };
        for statement in STATEMENT_LABELS {
            register(names::REQUESTS_TOTAL, statement);
            register(names::ROWS_RETURNED_TOTAL, statement);
        }
        for global in [
            names::REQUEST_ERRORS_TOTAL,
            names::BUDGET_BREACHES_TOTAL,
            names::DEGRADED_RESPONSES_TOTAL,
            names::CANCELLATIONS_TOTAL,
            names::PANICS_CONTAINED_TOTAL,
        ] {
            register(global, "");
        }
        let gauges = [names::ENGINE_DOCUMENTS, names::ORACLE_LABEL_BYTES, names::POSTING_BYTES]
            .into_iter()
            .map(|name| Scalar { name, label: "", value: AtomicU64::new(0) })
            .collect();
        let histograms = STATEMENT_LABELS
            .into_iter()
            .map(|label| HistogramEntry {
                name: names::REQUEST_LATENCY_SECONDS,
                label,
                histogram: Histogram::new(),
            })
            .collect();
        MetricsRegistry {
            counters,
            gauges,
            histograms,
            noop: AtomicU64::new(0),
            noop_histogram: Histogram::new(),
        }
    }

    /// The counter registered under `(name, label)` (global counters use the
    /// empty label); a no-op handle when unregistered.
    pub fn counter(&self, name: &str, label: &str) -> Counter<'_> {
        let cell = self
            .counters
            .iter()
            .find(|s| s.name == name && s.label == label)
            .map_or(&self.noop, |s| &s.value);
        Counter { cell }
    }

    /// The gauge registered under `name`; a no-op handle when unregistered.
    pub fn gauge(&self, name: &str) -> Gauge<'_> {
        let cell = self.gauges.iter().find(|s| s.name == name).map_or(&self.noop, |s| &s.value);
        Gauge { cell }
    }

    /// The histogram registered under `(name, label)`; a no-op sink when
    /// unregistered.
    pub fn histogram(&self, name: &str, label: &str) -> &Histogram {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
            .map_or(&self.noop_histogram, |h| &h.histogram)
    }

    /// Renders the whole catalog as deterministic JSON: entries sorted by
    /// `(name, label)`, histograms summarised as count/sum/min/max and the
    /// p50/p95/p99 quantiles (all in integer microseconds).
    pub fn snapshot(&self) -> String {
        let mut counters: Vec<&Scalar> = self.counters.iter().collect();
        counters.sort_by_key(|s| (s.name, s.label));
        let mut gauges: Vec<&Scalar> = self.gauges.iter().collect();
        gauges.sort_by_key(|s| (s.name, s.label));
        let mut histograms: Vec<&HistogramEntry> = self.histograms.iter().collect();
        histograms.sort_by_key(|h| (h.name, h.label));

        let scalar_json = |s: &Scalar| {
            format!(
                r#"    {{"name": "{}", "label": "{}", "value": {}}}"#,
                s.name,
                s.label,
                s.value.load(Ordering::Relaxed)
            )
        };
        let mut out = String::from("{\n  \"counters\": [\n");
        out.push_str(&counters.iter().map(|s| scalar_json(s)).collect::<Vec<_>>().join(",\n"));
        out.push_str("\n  ],\n  \"gauges\": [\n");
        out.push_str(&gauges.iter().map(|s| scalar_json(s)).collect::<Vec<_>>().join(",\n"));
        out.push_str("\n  ],\n  \"histograms\": [\n");
        let hist_json = |h: &HistogramEntry| {
            format!(
                r#"    {{"name": "{}", "label": "{}", "count": {}, "sum_us": {}, "min_us": {}, "max_us": {}, "p50_us": {}, "p95_us": {}, "p99_us": {}}}"#,
                h.name,
                h.label,
                h.histogram.count(),
                h.histogram.sum_micros(),
                h.histogram.min_micros().unwrap_or(0),
                h.histogram.max_micros().unwrap_or(0),
                h.histogram.quantile_micros(0.50),
                h.histogram.quantile_micros(0.95),
                h.histogram.quantile_micros(0.99),
            )
        };
        out.push_str(&histograms.iter().map(|h| hist_json(h)).collect::<Vec<_>>().join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the catalog in the Prometheus text exposition format
    /// (counters and gauges as-is, histograms as quantile summaries in
    /// seconds), for the future serving layer to expose.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        let mut counters: Vec<&Scalar> = self.counters.iter().collect();
        counters.sort_by_key(|s| (s.name, s.label));
        for s in counters {
            if s.name != last_name {
                out.push_str(&format!("# TYPE {} counter\n", s.name));
                last_name = s.name;
            }
            let labels = if s.label.is_empty() {
                String::new()
            } else {
                format!("{{statement=\"{}\"}}", s.label)
            };
            out.push_str(&format!("{}{} {}\n", s.name, labels, s.value.load(Ordering::Relaxed)));
        }
        for s in &self.gauges {
            out.push_str(&format!("# TYPE {} gauge\n", s.name));
            out.push_str(&format!("{} {}\n", s.name, s.value.load(Ordering::Relaxed)));
        }
        let mut last_name = "";
        let mut histograms: Vec<&HistogramEntry> = self.histograms.iter().collect();
        histograms.sort_by_key(|h| (h.name, h.label));
        for h in histograms {
            if h.name != last_name {
                out.push_str(&format!("# TYPE {} summary\n", h.name));
                last_name = h.name;
            }
            for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{}{{statement=\"{}\",quantile=\"{}\"}} {:.6}\n",
                    h.name,
                    h.label,
                    tag,
                    h.histogram.quantile_micros(q) as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "{}_sum{{statement=\"{}\"}} {:.6}\n",
                h.name,
                h.label,
                h.histogram.sum_micros() as f64 / 1e6
            ));
            out.push_str(&format!(
                "{}_count{{statement=\"{}\"}} {}\n",
                h.name,
                h.label,
                h.histogram.count()
            ));
        }
        out
    }

    /// Verifies the registry's structural invariants: every histogram's
    /// bucket/count consistency and bound monotonicity
    /// (`histogram-buckets`), min/max sanity (`histogram-minmax`), and
    /// snapshot determinism (`snapshot-deterministic`).  Quiescent fresh
    /// registries always pass.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        for h in &self.histograms {
            violations.extend(h.histogram.violations(&format!("{}{{{}}}", h.name, h.label)));
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

    /// Test-only corruption access: mutable histogram lookup so the
    /// seeded-corruption suite can reach the `corrupt_*` hooks.
    #[doc(hidden)]
    pub fn corrupt_histogram(&mut self, name: &str, label: &str) -> Option<&mut Histogram> {
        self.histograms
            .iter_mut()
            .find(|h| h.name == name && h.label == label)
            .map(|h| &mut h.histogram)
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
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

    #[test]
    fn registry_records_through_typed_names_and_noops_unknowns() {
        let m = MetricsRegistry::new();
        m.counter(names::REQUESTS_TOTAL, "TOPK").inc();
        m.counter(names::REQUESTS_TOTAL, "TOPK").add(2);
        assert_eq!(m.counter(names::REQUESTS_TOTAL, "TOPK").get(), 3);
        assert_eq!(m.counter(names::REQUESTS_TOTAL, "CUBE").get(), 0);
        m.gauge(names::ENGINE_DOCUMENTS).set(7);
        assert_eq!(m.gauge(names::ENGINE_DOCUMENTS).get(), 7);
        m.histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").observe_secs(0.001);
        assert_eq!(m.histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").count(), 1);
        // Unregistered lookups are live no-ops, absent from the snapshot.
        m.counter("bogus", "").inc();
        m.histogram("bogus", "").observe_micros(1);
        assert!(!m.snapshot().contains("bogus"));
        m.verify().unwrap();
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let m = MetricsRegistry::new();
        m.counter(names::REQUESTS_TOTAL, "TWIG").inc();
        let a = m.snapshot();
        assert_eq!(a, m.snapshot());
        let budget = a.find(names::BUDGET_BREACHES_TOTAL).unwrap();
        let requests = a.find(names::REQUESTS_TOTAL).unwrap();
        assert!(budget < requests, "snapshot entries must sort by name");
        assert!(a.contains(r#""name": "seda_requests_total", "label": "TWIG", "value": 1"#));
    }

    #[test]
    fn prometheus_rendering_exposes_types_and_quantiles() {
        let m = MetricsRegistry::new();
        m.counter(names::REQUESTS_TOTAL, "TOPK").inc();
        m.histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").observe_micros(2_000);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE seda_requests_total counter"));
        assert!(text.contains("seda_requests_total{statement=\"TOPK\"} 1"));
        assert!(text.contains("# TYPE seda_request_latency_seconds summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("seda_request_latency_seconds_count{statement=\"TOPK\"} 1"));
    }

    #[test]
    fn corrupted_histograms_fail_their_audit() {
        let mut m = MetricsRegistry::new();
        m.histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").observe_micros(500);
        m.verify().unwrap();
        m.corrupt_histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").unwrap().corrupt_bucket(0, 3);
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "histogram-buckets"), "{violations:?}");

        let mut m = MetricsRegistry::new();
        m.histogram(names::REQUEST_LATENCY_SECONDS, "CUBE").observe_micros(500);
        m.corrupt_histogram(names::REQUEST_LATENCY_SECONDS, "CUBE").unwrap().corrupt_minmax();
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "histogram-minmax"), "{violations:?}");

        let mut m = MetricsRegistry::new();
        m.corrupt_histogram(names::REQUEST_LATENCY_SECONDS, "TWIG")
            .unwrap()
            .corrupt_swap_bounds(0, BUCKETS - 1);
        let violations = m.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.substrate == "metrics"), "{violations:?}");
    }
}
