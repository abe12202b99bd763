//! `EXPLAIN ANALYZE` end-to-end: for every statement type, the request
//! executes the plan and returns the annotated transcript — the plan
//! transcript, the `analyze:` budget-accounting line and the per-step span
//! tree — while the profile keeps the execution's counters and rows.

use seda_core::{ResponsePayload, SedaEngine, SedaRequest, SedaResponse};
use seda_olap::Registry;
use seda_xmlstore::parse_collection;

fn engine() -> SedaEngine {
    let collection = parse_collection(vec![
        (
            "us2006.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        ),
        (
            "us2005.xml",
            r#"<country><name>United States</name><year>2005</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>13.8</percentage></item>
                 </import_partners></economy></country>"#,
        ),
    ])
    .unwrap();
    SedaEngine::build(collection, Registry::factbook_defaults(), seda_core::EngineConfig::default())
        .unwrap()
}

const QUERY: &str = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;
const REFINEMENT: &str = "WITH 0 IN /country/name \
     WITH 1 IN /country/economy/import_partners/item/trade_country \
     WITH 2 IN /country/economy/import_partners/item/percentage";

/// Executes `EXPLAIN ANALYZE {request}` and returns the transcript plus the
/// full response, asserting the annotations every statement must carry.
fn analyze(engine: &SedaEngine, request: &str) -> (String, SedaResponse) {
    let mut reader = engine.reader();
    let text = format!("EXPLAIN ANALYZE {request}");
    let parsed = SedaRequest::parse(&text).unwrap();
    assert!(parsed.explain && parsed.analyze, "{text}");
    let response = reader.execute_text(&text).unwrap();
    let transcript =
        response.explain_transcript().expect("analyze yields a transcript").to_string();
    assert!(transcript.contains("analyze:"), "{transcript}");
    assert!(transcript.contains("row(s)"), "{transcript}");
    assert!(transcript.contains("[plan]"), "{transcript}");
    assert!(transcript.contains("[execute]"), "{transcript}");
    assert!(!response.profile.spans.is_empty(), "profile must keep the span tree");
    // Forcing tracing for the analyzed request must not leave it on.
    assert!(!reader.tracing_enabled());
    let plain = reader.execute_text(request).unwrap();
    assert!(plain.profile.spans.is_empty(), "untraced requests record no spans");
    (transcript, response)
}

#[test]
fn topk_analyze_annotates_the_search_span() {
    let e = engine();
    let (transcript, response) = analyze(&e, &format!("TOPK 5 FOR {QUERY}"));
    assert!(transcript.contains("plan: TOPK"), "{transcript}");
    assert!(transcript.contains("[search]"), "{transcript}");
    assert!(transcript.contains("sorted="), "{transcript}");
    assert!(response.profile.rows > 0, "profile keeps the executed row count");
    assert!(response.profile.sorted_accesses > 0);
}

#[test]
fn contexts_analyze_annotates_the_summary_step() {
    let e = engine();
    let (transcript, response) = analyze(&e, &format!("CONTEXTS FOR {QUERY}"));
    assert!(transcript.contains("plan: CONTEXTS"), "{transcript}");
    assert!(transcript.contains("[context-summary]"), "{transcript}");
    assert!(response.profile.rows > 0);
}

#[test]
fn connections_analyze_annotates_search_and_discovery() {
    let e = engine();
    let (transcript, _) = analyze(&e, &format!("CONNECTIONS 5 FOR {QUERY}"));
    assert!(transcript.contains("plan: CONNECTIONS"), "{transcript}");
    assert!(transcript.contains("[search]"), "{transcript}");
    assert!(transcript.contains("[discover-connections]"), "{transcript}");
}

#[test]
fn results_analyze_annotates_the_complete_result_step() {
    let e = engine();
    let (transcript, response) = analyze(&e, &format!("RESULTS FOR {QUERY} {REFINEMENT}"));
    assert!(transcript.contains("plan: RESULTS"), "{transcript}");
    assert!(transcript.contains("[complete-results]"), "{transcript}");
    assert_eq!(response.profile.rows, 3, "both 2006 items plus the 2005 item");
}

#[test]
fn twig_analyze_reports_nodes_visited() {
    let e = engine();
    let (transcript, _) = analyze(&e, "TWIG /country/economy//trade_country");
    assert!(transcript.contains("plan: TWIG"), "{transcript}");
    assert!(transcript.contains("[twig-evaluate]"), "{transcript}");
    assert!(transcript.contains("visited="), "{transcript}");
}

#[test]
fn cube_analyze_annotates_derivation_and_aggregation() {
    let e = engine();
    let (transcript, _) = analyze(
        &e,
        &format!("CUBE import-trade-percentage BY import-country AGG sum FOR {QUERY} {REFINEMENT}"),
    );
    assert!(transcript.contains("plan: CUBE"), "{transcript}");
    assert!(transcript.contains("[complete-results]"), "{transcript}");
    assert!(transcript.contains("[derive-star-schema]"), "{transcript}");
    assert!(transcript.contains("[aggregate]"), "{transcript}");
}

#[test]
fn plain_explain_still_stops_after_planning() {
    let e = engine();
    let mut reader = e.reader();
    let response = reader.execute_text(&format!("EXPLAIN TOPK 5 FOR {QUERY}")).unwrap();
    let transcript = response.explain_transcript().unwrap();
    assert!(transcript.contains("plan: TOPK"), "{transcript}");
    assert!(!transcript.contains("analyze:"), "EXPLAIN must not execute: {transcript}");
    assert_eq!(response.profile.rows, 0);
    assert_eq!(response.profile.exec_secs, 0.0);
}

#[test]
fn analyze_round_trips_through_the_textual_front_end() {
    let text = format!("EXPLAIN ANALYZE TOPK 5 FOR {QUERY}");
    let parsed = SedaRequest::parse(&text).unwrap();
    let rendered = parsed.render();
    assert!(rendered.starts_with("EXPLAIN ANALYZE TOPK 5 FOR "), "{rendered}");
    // Rendering is a fixpoint: the rendered text re-parses to the same flags
    // and renders identically (terms are case-normalized on first parse).
    let reparsed = SedaRequest::parse(&rendered).unwrap();
    assert!(reparsed.explain && reparsed.analyze);
    assert_eq!(reparsed.render(), rendered);
}

#[test]
fn analyze_payload_is_the_explain_shape() {
    let e = engine();
    let mut reader = e.reader();
    let response = reader.execute_text(&format!("EXPLAIN ANALYZE CONTEXTS FOR {QUERY}")).unwrap();
    assert!(matches!(response.payload, ResponsePayload::Explain(_)));
    // The payload's own row count is zero (it is a transcript); the profile
    // keeps the execution's rows.
    assert_eq!(response.payload.rows(), 0);
    assert!(response.profile.rows > 0);
}
