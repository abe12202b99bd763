//! `EXPLAIN ANALYZE` end-to-end: for every statement type, the request
//! executes the plan and returns the annotated transcript — the plan
//! transcript, the `analyze:` budget-accounting line and the per-step span
//! tree — while the profile keeps the execution's counters and rows.  Every
//! statement's plain `EXPLAIN` transcript is pinned byte for byte on the
//! small Factbook and Mondial corpora.

use seda_core::{EngineConfig, ResponsePayload, SedaEngine, SedaRequest, SedaResponse};
use seda_datagen::{factbook, mondial, FactbookConfig, MondialConfig};
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

/// The small generated corpora the pinned transcripts are planned on.
fn corpora() -> (SedaEngine, SedaEngine) {
    let build = |collection| {
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    };
    let factbook = build(factbook::generate(&FactbookConfig::small()).unwrap());
    let mondial = build(mondial::generate(&MondialConfig::small()).unwrap());
    (factbook, mondial)
}

/// The transcript of `EXPLAIN {request}`.
fn explain(engine: &SedaEngine, request: &str) -> String {
    let response = engine.reader().execute_text(&format!("EXPLAIN {request}")).unwrap();
    response.explain_transcript().unwrap().to_string()
}

const IMPORT_COUNTRY: &str = "/country/economy/import_partners/item/trade_country";
const IMPORT_PERCENTAGE: &str = "/country/economy/import_partners/item/percentage";

/// Every statement's `EXPLAIN` transcript, byte for byte.
#[test]
fn every_transcript_is_pinned() {
    let (factbook, mondial) = corpora();
    let refined = format!(
        "FOR {QUERY} WITH 0 IN /country/name WITH 1 IN {IMPORT_COUNTRY} WITH 2 IN {IMPORT_PERCENTAGE}"
    );
    let header =
        "over 3 term(s): (*, \"united states\") AND (trade_country, *) AND (percentage, *)";
    let refined_terms = "  1. resolve contexts of term 0 (*, \"united states\"): 1 path(s)
  2. resolve contexts of term 1 (trade_country, *): 1 path(s)
  3. resolve contexts of term 2 (percentage, *): 1 path(s)
  4. enumerate 1 context combination(s)
  5. evaluate 1 same-root combination(s) as merged twig patterns
";
    let cases = [
        (
            &factbook,
            format!("TOPK 5 FOR {QUERY} WITH 0 IN /country/name"),
            format!(
                "plan: TOPK {header}
  1. resolve contexts of term 0 (*, \"united states\"): 1 path(s)
  2. resolve contexts of term 1 (trade_country, *): 4 path(s)
  3. resolve contexts of term 2 (percentage, *): 4 path(s)
  4. threshold-algorithm rank join: k=5, candidate limit 200000
"
            ),
        ),
        (
            &factbook,
            format!("CONTEXTS FOR {QUERY}"),
            format!(
                "plan: CONTEXTS {header}
  1. context buckets from the keyword→path index for 3 term(s)
"
            ),
        ),
        (
            &mondial,
            r#"CONNECTIONS 5 FOR (name, "Canada") AND (population, *)"#.to_string(),
            "plan: CONNECTIONS over 2 term(s): (name, \"canada\") AND (population, *)
  1. resolve contexts of term 0 (name, \"canada\"): 10 path(s)
  2. resolve contexts of term 1 (population, *): 3 path(s)
  3. threshold-algorithm rank join: k=5, candidate limit 200000
  4. discover pairwise connections (oracle depth ≤ 12)
"
            .to_string(),
        ),
        (
            &factbook,
            format!("RESULTS {refined}"),
            format!("plan: RESULTS {header}\n{refined_terms}"),
        ),
        (
            &mondial,
            r#"RESULTS FOR (name, "Canada") AND (population, *)"#.to_string(),
            "plan: RESULTS over 2 term(s): (name, \"canada\") AND (population, *)
  1. resolve contexts of term 0 (name, \"canada\"): 10 path(s)
  2. resolve contexts of term 1 (population, *): 3 path(s)
  3. enumerate 30 context combination(s)
  4. evaluate 3 same-root combination(s) as merged twig patterns
  5. join 27 cross-root combination(s) via graph connectivity (depth ≤ 12, ≤ 500000 rows)
"
            .to_string(),
        ),
        (
            &factbook,
            "RESULTS FOR (/no/such, *) AND (percentage, *)".to_string(),
            "plan: RESULTS over 2 term(s): (/no/such, *) AND (percentage, *)
  1. resolve contexts of term 0 (/no/such, *): 0 path(s)
  2. resolve contexts of term 1 (percentage, *): 4 path(s)
  3. enumerate 0 context combination(s)
"
            .to_string(),
        ),
        (
            &factbook,
            "TWIG /country/economy//trade_country".to_string(),
            "plan: TWIG\n  1. evaluate twig pattern: 3 node(s), 1 output(s)\n".to_string(),
        ),
        (
            &factbook,
            format!("CUBE import-trade-percentage BY import-country AGG sum {refined}"),
            format!(
                "plan: CUBE {header}\n{refined_terms}  6. derive and instantiate the star schema
  7. aggregate fact \"import-trade-percentage\": \
sum(import-trade-percentage) grouped by [import-country]
"
            ),
        ),
    ];
    for (engine, request, expected) in cases {
        assert_eq!(explain(engine, &request), expected, "{request}");
    }
}

/// A prepared statement's transcript follows `set_k`, and the plan part of
/// `EXPLAIN ANALYZE` is the plain `EXPLAIN` transcript.
#[test]
fn prepared_and_analyzed_transcripts_are_pinned() {
    let (factbook, _) = corpora();
    let mut reader = factbook.reader();
    let mut prepared =
        reader.prepare(&SedaRequest::parse(&format!("TOPK 5 FOR {QUERY}")).unwrap()).unwrap();
    assert!(prepared.set_k(2));
    let expected = "\
plan: TOPK over 3 term(s): (*, \"united states\") AND (trade_country, *) AND (percentage, *)
  1. resolve contexts of term 0 (*, \"united states\"): unrestricted
  2. resolve contexts of term 1 (trade_country, *): 4 path(s)
  3. resolve contexts of term 2 (percentage, *): 4 path(s)
  4. threshold-algorithm rank join: k=2, candidate limit 200000
";
    assert_eq!(prepared.explain(), expected);
    assert_eq!(explain(&factbook, &format!("TOPK 2 FOR {QUERY}")), expected);

    let analyzed = reader.execute_text(&format!("EXPLAIN ANALYZE TOPK 2 FOR {QUERY}")).unwrap();
    let transcript = analyzed.explain_transcript().unwrap();
    let plan_part = &transcript[..transcript.find("analyze:").unwrap()];
    assert_eq!(plan_part, expected);
}
