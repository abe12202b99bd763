//! Fault-injection harness: every named fault site in
//! [`seda_core::faults::FAULT_SITES`], when armed, must surface as a typed
//! error (never a process abort) and leave the engine fully serviceable for
//! the next request.
//!
//! Run with `cargo test -p seda --features failpoints`.

#![cfg(feature = "failpoints")]

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use seda_core::faults::{arm, disarm_all, FaultAction, FAULT_SITES};
use seda_core::{
    Budget, EngineConfig, RequestContext, SedaEngine, SedaError, SedaQuery, SedaRequest,
    SedaSession,
};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::Registry;
use seda_topk::TopKResult;

/// The fault registry is process-global, so tests in this binary must not
/// overlap: each one holds this guard while a site is armed.
fn serialise() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine_with_parallelism(parallelism: usize) -> Result<SedaEngine, SedaError> {
    let collection =
        factbook::generate(&FactbookConfig::paper_scaled(12, 3)).expect("generate factbook");
    SedaEngine::build(
        collection,
        Registry::factbook_defaults(),
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
}

/// Ungoverned `TOPK 5` through a fresh reader.
fn top_k(engine: &SedaEngine, query: &SedaQuery) -> TopKResult {
    let request = SedaRequest::builder().top_k(5).query(query.clone()).build();
    let response = engine.reader().execute(&request).expect("top-k");
    response.top_k().expect("top-k payload").clone()
}

fn topk_request() -> SedaRequest {
    SedaRequest::parse(r#"TOPK 5 FOR (*, "United States") AND (trade_country, *)"#)
        .expect("topk request parses")
}

const SOURCES: [(&str, &str); 2] = [
    ("a.xml", "<country><name>Andorra</name></country>"),
    ("b.xml", "<country><name>Belize</name></country>"),
];

#[test]
fn parse_site_faults_surface_as_internal_and_build_recovers() {
    let _guard = serialise();
    for action in [FaultAction::Error, FaultAction::Panic] {
        arm("parse", action);
        let built = SedaEngine::build_from_sources(
            SOURCES,
            Registry::factbook_defaults(),
            EngineConfig::default(),
        );
        assert!(
            matches!(built, Err(SedaError::Internal(_))),
            "armed parse site ({action:?}) must fail the build"
        );
    }
    disarm_all();
    // The fault consumed its arming: the identical build now succeeds.
    let engine = SedaEngine::build_from_sources(
        SOURCES,
        Registry::factbook_defaults(),
        EngineConfig::default(),
    )
    .expect("unarmed build succeeds");
    assert_eq!(engine.collection().len(), 2);
}

#[test]
fn build_site_faults_fail_one_and_two_thread_builds_cleanly() {
    let _guard = serialise();
    // Both build sites fire at either thread count.  At two threads
    // `node-index-build` fires on the second thread: a panic there is
    // contained and joined, so the build fails with a typed error and does
    // not hang; `oracle-build` fires on the calling thread.
    for parallelism in [1, 2] {
        for site in ["oracle-build", "node-index-build"] {
            for action in [FaultAction::Error, FaultAction::Panic] {
                arm(site, action);
                assert!(
                    matches!(engine_with_parallelism(parallelism), Err(SedaError::Internal(_))),
                    "armed {site} ({action:?}) must fail the build at parallelism {parallelism}"
                );
            }
        }
    }
    disarm_all();
    for parallelism in [1, 2] {
        assert!(engine_with_parallelism(parallelism).is_ok(), "unarmed build succeeds");
    }
}

#[test]
fn mid_search_panic_becomes_internal_and_the_reader_keeps_serving() {
    let _guard = serialise();
    let engine = engine_with_parallelism(1).expect("engine build");
    let mut reader = engine.reader();
    let request = topk_request();

    arm("mid-search", FaultAction::Panic);
    let err = reader.execute(&request).expect_err("armed mid-search must fail the request");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();

    // Same reader handle, same request: the panic was contained and the
    // scratch reset, so the next execution answers normally.
    let response = reader.execute(&request).expect("reader recovered");
    assert!(!response.top_k().expect("top-k payload").tuples.is_empty());
}

#[test]
fn mid_search_panic_below_a_typed_step_is_contained_and_the_reader_recovers() {
    let _guard = serialise();
    let engine = engine_with_parallelism(1).expect("engine build");
    let query = SedaQuery::parse(r#"(*, "United States") AND (trade_country, *)"#).unwrap();
    let request = SedaRequest::builder().top_k(5).query(query.clone()).build();
    let ctx = RequestContext::unlimited();
    let mut reader = engine.reader();
    let top_k = |outcome: Result<seda_core::SedaResponse, SedaError>| {
        outcome.map(|response| response.top_k().expect("top-k payload").clone())
    };
    let baseline = top_k(reader.execute_governed(&request, &ctx)).expect("baseline");
    assert!(!baseline.tuples.is_empty(), "workload must produce matches");

    // A builder-made request runs inside the reader's containment boundary:
    // the panic surfaces as a typed error instead of unwinding into the
    // caller.
    arm("mid-search", FaultAction::Panic);
    let err = top_k(reader.execute_governed(&request, &ctx))
        .expect_err("armed mid-search must fail the request");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();

    // Same reader, same query: the scratch was rebuilt, the answer is the
    // unarmed baseline's, counters included.
    let recovered = top_k(reader.execute_governed(&request, &ctx)).expect("recovered");
    assert_eq!(recovered, baseline, "recovery must not change the answer");

    // The session sends the same search as its request, so it surfaces the
    // typed error too and keeps serving afterwards.
    let mut session = SedaSession::new(&engine);
    session.set_k(5);
    arm("mid-search", FaultAction::Panic);
    let err = session.submit(query.clone()).expect_err("armed mid-search must fail the submit");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();
    let resubmitted = session.submit(query).expect("session recovered");
    assert_eq!(resubmitted.tuples, baseline.tuples);

    // A failed stage leaves the session as it was: refine term 0, then fail
    // the submit of another query.
    let name = engine.resolve_path("/country/name").expect("name path");
    session.select_contexts(0, vec![name]).expect("refinement");
    let query = session.query().cloned();
    let selections = session.selections().to_vec();
    let contexts = session.context_summary().expect("context summary").clone();
    let top_k = session.top_k().expect("top-k").clone();
    arm("mid-search", FaultAction::Panic);
    let err = session
        .submit(SedaQuery::parse("(percentage, *)").unwrap())
        .expect_err("armed mid-search must fail the submit");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();
    assert_eq!(session.query(), query.as_ref(), "the failed query must not replace the old one");
    assert_eq!(session.selections(), selections, "the selections must survive");
    assert_eq!(session.context_summary(), Ok(&contexts), "the context summary must survive");
    assert_eq!(session.top_k(), Ok(&top_k), "the top-k must survive");
}

#[test]
fn mid_search_delay_trips_the_request_deadline() {
    let _guard = serialise();
    let engine = engine_with_parallelism(1).expect("engine build");
    let mut reader = engine.reader();
    let ctx = RequestContext::new(Budget::unlimited().with_deadline(Duration::from_millis(5)));

    arm("mid-search", FaultAction::Delay(Duration::from_millis(50)));
    let err = reader
        .execute_governed(&topk_request(), &ctx)
        .expect_err("delayed search must breach the deadline");
    assert!(matches!(err, SedaError::Limit { resource: "deadline", .. }), "{err:?}");
    disarm_all();
}

#[test]
fn armed_faults_never_yield_a_verified_engine_that_answers_wrong() {
    let _guard = serialise();
    // Unarmed baseline: the reference engine and its answer to the workload.
    let baseline_engine = engine_with_parallelism(2).expect("baseline engine build");
    assert!(baseline_engine.verify().is_ok(), "baseline engine must pass its audit");
    let query = SedaQuery::parse(r#"(*, "United States") AND (trade_country, *)"#).unwrap();
    let baseline = top_k(&baseline_engine, &query);

    // For every catalogued site and every failure mode: either the build
    // surfaces a typed error, or — if the armed site was never reached — the
    // resulting engine passes the full structural audit AND answers exactly
    // like the baseline.  A fault must never produce an engine that verifies
    // clean yet answers wrong.
    for &site in FAULT_SITES {
        for action in [FaultAction::Error, FaultAction::Panic] {
            arm(site, action);
            match engine_with_parallelism(2) {
                Err(SedaError::Internal(_)) => {}
                Err(other) => panic!("site {site} ({action:?}) must fail typed, got {other:?}"),
                Ok(engine) => {
                    // Query-time sites are still armed here; disarm so the
                    // answer check below measures the engine, not the fault.
                    disarm_all();
                    assert!(
                        engine.verify().is_ok(),
                        "site {site} ({action:?}) yielded an engine that fails verify()"
                    );
                    let answer = top_k(&engine, &query);
                    assert_eq!(
                        answer.tuples, baseline.tuples,
                        "site {site} ({action:?}) passed verify() but answers differ"
                    );
                }
            }
            disarm_all();
        }
    }

    // Query-time faults: after a contained mid-search panic, the engine must
    // still pass the full audit and keep answering exactly like before — a
    // fault that silently corrupted scratch state would either fail verify()
    // or change the answer, and both are caught here.
    let mut reader = baseline_engine.reader();
    arm("mid-search", FaultAction::Panic);
    assert!(reader.execute(&topk_request()).is_err(), "armed mid-search must fail the request");
    disarm_all();
    assert!(baseline_engine.verify().is_ok(), "engine must pass its audit after a contained fault");
    let recovered = top_k(&baseline_engine, &query);
    assert_eq!(recovered.tuples, baseline.tuples, "post-fault answers must match the baseline");
}

#[test]
fn explain_analyze_survives_a_contained_mid_search_panic() {
    let _guard = serialise();
    let engine = engine_with_parallelism(1).expect("engine build");
    let mut reader = engine.reader();
    let request = SedaRequest::parse(
        r#"EXPLAIN ANALYZE TOPK 5 FOR (*, "United States") AND (trade_country, *)"#,
    )
    .expect("analyze request parses");
    let panics_before = engine.metrics().panics_contained();

    // The forced-tracing request unwinds mid-search; the panic must be
    // contained, and neither the forced tracing nor any half-open span may
    // leak into the reader's steady state.
    arm("mid-search", FaultAction::Panic);
    let err = reader.execute(&request).expect_err("armed mid-search must fail the request");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();
    assert!(!reader.tracing_enabled(), "forced tracing must be restored after a failure");
    assert_eq!(
        engine.metrics().panics_contained(),
        panics_before + 1,
        "the contained panic must be counted as a first-class metric"
    );

    // The same reader renders a complete annotated transcript next time —
    // exactly one [plan] span proves the failed request's trace was discarded.
    let response = reader.execute(&request).expect("reader recovered");
    let transcript = response.explain_transcript().expect("explain payload");
    assert!(transcript.contains("analyze:"), "{transcript}");
    assert!(transcript.contains("[search]"), "{transcript}");
    assert_eq!(transcript.matches("[plan]").count(), 1, "{transcript}");
}

/// The pinned distance probes keep per-request state in the reader's scratch
/// (`tests/pinned_scratch_hygiene.rs`): after a contained panic the same
/// reader must serve the two pinned paths — the two-term join and the
/// cross-root `RESULTS` join, on the IDREF-webbed corpus where they pin —
/// exactly like a fresh reader, from a scratch that verifies clean.
#[test]
fn a_contained_mid_search_panic_leaves_the_pinned_paths_answering_like_a_fresh_reader() {
    let _guard = serialise();
    let collection = seda_datagen::Dataset::Mondial.generate_small().expect("generate mondial");
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .expect("engine build");
    let topk = SedaRequest::parse("TOPK 10 FOR (name, *) AND (population, *)").expect("parses");
    let results = SedaRequest::parse(
        "RESULTS FOR (*, *) AND (*, *) WITH 0 IN /sea/name WITH 1 IN /country/name",
    )
    .expect("parses");
    let fresh_topk = engine.reader().execute(&topk).expect("fresh top-k");
    let fresh_results = engine.reader().execute(&results).expect("fresh RESULTS");
    assert!(fresh_topk.profile.label_probes > 0 && fresh_results.profile.label_probes > 0);

    let mut reader = engine.reader();
    // Grow and use the scratch first, so the panic meets a worked-in reader.
    reader.execute(&topk).expect("warm-up top-k");
    reader.execute(&results).expect("warm-up RESULTS");
    arm("mid-search", FaultAction::Panic);
    let err = reader.execute(&topk).expect_err("armed mid-search must fail the request");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    disarm_all();

    reader.scratch_mut().verify().expect("the healed scratch holds no pinned label");
    let again = reader.execute(&topk).expect("reader recovered");
    assert_eq!(again.top_k(), fresh_topk.top_k(), "tuples, score bits and counters");
    let again = reader.execute(&results).expect("reader recovered");
    assert_eq!(again.table(), fresh_results.table());
    assert_eq!(again.profile.label_probes, fresh_results.profile.label_probes);
    reader.scratch_mut().verify().expect("and stays clean");
}

#[test]
fn batch_isolation_confines_an_injected_panic_to_one_request() {
    let _guard = serialise();
    let engine = engine_with_parallelism(1).expect("engine build");
    let requests = vec![topk_request(), topk_request(), topk_request()];

    // One-shot arming: exactly one of the batch's requests hits the fault;
    // per-item isolation must keep the other two healthy.
    arm("mid-search", FaultAction::Panic);
    let results = engine.execute_batch(&requests, 2);
    disarm_all();
    assert_eq!(results.len(), requests.len());
    let failures = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(failures, 1, "exactly one request absorbs the one-shot fault: {results:?}");
    for ok in results.iter().flatten() {
        assert!(!ok.top_k().expect("top-k payload").tuples.is_empty());
    }
}
