//! # seda-bench
//!
//! What only this crate checks.  Every latency, throughput and memory number
//! comes from the paper-scale harness under `benchmark/` (see
//! `benchmark/README.md`); this crate keeps the `audit` binary and the two
//! gates of `perf_smoke`, which compare the engine against itself within one
//! process and so need no committed baseline:
//!
//! * **join scaling** — the broad three-term googlebase `TOPK` at 4× the
//!   documents costs at most [`JOIN_SCALING_BOUND`]× the time;
//! * **governance overhead** — the same request under a fully specified,
//!   never-breached [`Budget`] costs at most [`GOVERNANCE_BOUND`]× the
//!   ungoverned run.
//!
//! Each verdict is a pure function of the measured numbers, so the tests below
//! feed it a regressed engine's numbers and watch it fail.

use std::time::{Duration, Instant};

use seda_core::{Budget, EngineConfig, RequestContext, SedaEngine};
use seda_datagen::{googlebase, GoogleBaseConfig};
use seda_olap::Registry;

/// The broad request both gates time: three terms, two of them match-all, so
/// every document contributes postings and the rank join does all the work.
pub const BROAD_TOPK: &str = "TOPK 10 FOR (title, model) AND (price, *) AND (condition, new)";

/// Corpus sizes of the join-scaling gate (one-document components each).
pub const BASE_ITEMS: usize = 1_500;
/// Four times [`BASE_ITEMS`]; also the corpus of the governance gate, where
/// the request takes ≈ 6.5 ms and timer noise is well under a percent.
pub const SCALED_ITEMS: usize = 4 * BASE_ITEMS;

/// Timed repetitions per side of [`interleaved_minima`].
pub const REPS: usize = 15;

/// Allowed `t(SCALED_ITEMS) / t(BASE_ITEMS)`.  A join doing linear work per
/// sorted access reads ≈ 4× (measured 3.92–4.13× over twenty runs); one
/// scanning every seen posting per sorted access reads ≈ 16×.
pub const JOIN_SCALING_BOUND: f64 = 8.0;

/// Allowed `t(governed) / t(ungoverned)`: the worst of twenty measured runs
/// (1.092–1.131) plus their spread, 1.131 + 0.039.  The cost is real — the
/// deadline check reads the clock once per sorted access — not noise.
pub const GOVERNANCE_BOUND: f64 = 1.17;

/// An engine over a datagen googlebase corpus of `items` flat documents.
pub fn googlebase_engine(items: usize) -> Result<SedaEngine, String> {
    let config = GoogleBaseConfig { items, ..GoogleBaseConfig::small() };
    let collection = googlebase::generate(&config).map_err(|e| e.to_string())?;
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .map_err(|e| e.to_string())
}

/// A context whose every ceiling is set and none can be reached, so each
/// governance site does its full check and never breaches.
pub fn generous_context() -> RequestContext {
    RequestContext::new(
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_sorted_accesses(usize::MAX)
            .with_max_random_accesses(usize::MAX)
            .with_max_candidates(usize::MAX)
            .with_max_label_probes(u64::MAX)
            .with_max_rows(usize::MAX)
            .with_max_twig_matches(usize::MAX)
            .with_max_cube_cells(usize::MAX),
    )
}

/// Fastest-of-[`REPS`] wall time in milliseconds of `a` and of `b`, after one
/// untimed run of each.  The reps alternate a, b, a, b, … so a slow phase of
/// the host falls on both sides, and the minima compare the two at their
/// undisturbed best.
pub fn interleaved_minima(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

/// One gate's report line — the ratio `measured_ms / base_ms`, its bound and
/// both times — as `Ok` when the ratio is within `bound`, else as `Err`.
fn bounded_ratio(gate: &str, base_ms: f64, measured_ms: f64, bound: f64) -> Result<String, String> {
    let ratio = measured_ms / base_ms;
    let line =
        format!("{gate} {ratio:.3}x (allowed {bound}x): {measured_ms:.3}ms against {base_ms:.3}ms");
    // Written so that a NaN ratio (a measurement that timed nothing) fails.
    if ratio <= bound {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The join-scaling gate over the broad `TOPK` times at [`BASE_ITEMS`] and
/// [`SCALED_ITEMS`] documents.
pub fn join_scaling_verdict(base_ms: f64, scaled_ms: f64) -> Result<String, String> {
    bounded_ratio("join scaling", base_ms, scaled_ms, JOIN_SCALING_BOUND)
}

/// The governance-overhead gate over one request's ungoverned and governed
/// times.
pub fn governance_verdict(ungoverned_ms: f64, governed_ms: f64) -> Result<String, String> {
    bounded_ratio("governance overhead", ungoverned_ms, governed_ms, GOVERNANCE_BOUND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_core::SedaRequest;

    #[test]
    fn join_scaling_fails_on_a_prefix_scan_join_and_passes_on_the_measured_pair() {
        // The join PR 12 removed: 4x the documents, 16x the time.
        let failure = join_scaling_verdict(1.0, 16.0).unwrap_err();
        assert!(failure.starts_with("join scaling 16.000x (allowed 8x)"), "{failure}");
        // The least favourable pair recorded on the component-partitioned join.
        let pass = join_scaling_verdict(1.29, 7.66).unwrap();
        assert!(pass.starts_with("join scaling 5.938x"), "{pass}");
    }

    #[test]
    fn governance_fails_at_one_and_a_half_and_passes_at_a_tenth_over() {
        let failure = governance_verdict(6.5, 6.5 * 1.5).unwrap_err();
        assert!(failure.starts_with("governance overhead 1.500x"), "{failure}");
        assert!(governance_verdict(6.5, 6.5 * 1.10).is_ok());
        // A measurement that timed nothing is a failure, not a pass.
        assert!(governance_verdict(0.0, 0.0).is_err());
    }

    /// The seeded slowdown: the governed side does the request twice, and the
    /// real measuring helper plus the real verdict must see it.
    #[test]
    fn a_seeded_slow_governed_side_fails_the_gate_through_the_real_helper() {
        let engine = googlebase_engine(300).unwrap();
        let request = SedaRequest::parse(BROAD_TOPK).unwrap();
        let (mut plain, mut slowed) = (engine.reader(), engine.reader());
        let unlimited = RequestContext::unlimited();
        let (ungoverned_ms, governed_ms) = interleaved_minima(
            || drop(plain.execute_governed(&request, &unlimited).unwrap()),
            || {
                for _ in 0..2 {
                    slowed.execute_governed(&request, &generous_context()).unwrap();
                }
            },
        );
        governance_verdict(ungoverned_ms, governed_ms).unwrap_err();
    }
}
