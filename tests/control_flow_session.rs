//! Experiment F6: the Figure 6 control flow — search, context refinement,
//! connection refinement, complete results, aggregation — exercised through
//! the session API over the Factbook-like corpus.

use seda_core::{
    Budget, EngineConfig, SedaEngine, SedaRequest, SedaSession, SessionStage, Statement,
};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::{BuildOptions, Registry};

fn engine() -> SedaEngine {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default()).unwrap()
}

#[test]
fn stages_progress_through_the_feedback_loop() {
    let engine = engine();
    let mut session = SedaSession::new(&engine);
    assert_eq!(session.stage(), SessionStage::Empty);

    session
        .submit_text(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
        .unwrap();
    assert_eq!(session.stage(), SessionStage::Explored);
    let k = session.top_k().unwrap().tuples.len();
    assert!(k > 0 && k <= 10);

    // Context summary must offer both the import and export contexts for the
    // trade_country term — the ambiguity the user resolves.
    let summary = session.context_summary().unwrap();
    let tc_bucket = &summary.buckets[1];
    assert!(tc_bucket.entries.len() >= 2, "trade_country occurs in import and export contexts");

    // Refine to import partners.
    let c = engine.collection();
    let tc = c
        .paths()
        .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
        .unwrap();
    let pct =
        c.paths().get_str(c.symbols(), "/country/economy/import_partners/item/percentage").unwrap();
    let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
    session.select_contexts(0, vec![name]).unwrap();
    session.select_contexts(1, vec![tc]).unwrap();
    session.select_contexts(2, vec![pct]).unwrap();
    assert_eq!(session.stage(), SessionStage::Explored, "refinement keeps the session exploring");

    // Restricting contexts restricts every top-k tuple to those contexts.
    for tuple in &session.top_k().unwrap().tuples {
        assert_eq!(
            c.context_string(tuple.nodes[1]).unwrap(),
            "/country/economy/import_partners/item/trade_country"
        );
    }

    // Connection refinement: keep only the same-item connection.
    let connections = session.connection_summary().unwrap().clone();
    assert!(!connections.is_empty());
    let same_item: Vec<_> =
        connections.connections.iter().filter(|c| c.length() == 2).cloned().collect();
    assert!(!same_item.is_empty());
    session.select_connections(same_item).unwrap();

    let complete = session.complete_results().unwrap().clone();
    assert!(!complete.is_empty());
    assert_eq!(session.stage(), SessionStage::Materialized);
    // Every complete-result row satisfies the connection constraint: the
    // trade_country and percentage nodes share the same item parent.
    for row in complete.rows() {
        let tc_parent = c.node(row[1]).unwrap().parent;
        let pct_parent = c.node(row[2]).unwrap().parent;
        assert_eq!(tc_parent, pct_parent);
    }

    let build = session.build_cube(&BuildOptions::default()).unwrap();
    assert!(build.schema.fact("import-trade-percentage").is_some());
    assert_eq!(session.stage(), SessionStage::Analyzed);
}

#[test]
fn complete_results_are_a_superset_of_topk_tuples() {
    let engine = engine();
    let mut session = SedaSession::new(&engine);
    session.set_k(5);
    session.submit_text(r#"(/country/name, *) AND (/country/year, *)"#).unwrap();
    let topk_nodes: Vec<Vec<_>> = session.top_k().unwrap().node_tuples();
    let complete = session.complete_results().unwrap();
    assert!(complete.len() >= topk_nodes.len());
    for tuple in &topk_nodes {
        let found = complete.rows().any(|row| row == tuple.as_slice());
        assert!(found, "top-k tuple missing from the complete result");
    }
}

#[test]
fn unparseable_queries_are_rejected_without_changing_state() {
    let engine = engine();
    let mut session = SedaSession::new(&engine);
    assert!(session.submit_text("this is not a SEDA query").is_err());
    assert_eq!(session.stage(), SessionStage::Empty);
    assert!(session.top_k().is_err());
}

const QUERY1: &str = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;

/// The import-partner contexts of Query 1's three terms.
fn import_contexts(engine: &SedaEngine) -> [seda_xmlstore::PathId; 3] {
    [
        "/country/name",
        "/country/economy/import_partners/item/trade_country",
        "/country/economy/import_partners/item/percentage",
    ]
    .map(|path| engine.resolve_path(path).unwrap())
}

/// The session's budget governs every request of every stage: under a
/// one-row ceiling each stage answers at most one row, flags its answer
/// degraded and counts as one request of its statement.
#[test]
fn the_session_budget_governs_every_stage() {
    let engine = engine();
    let metrics = engine.metrics();
    let statements = ["CONTEXTS FOR (a, *)", "CONNECTIONS 10 FOR (a, *)", "RESULTS FOR (a, *)"]
        .map(|text| SedaRequest::parse(text).unwrap().statement);
    let requests = || statements.each_ref().map(|statement| metrics.requests(statement));
    let mut session = SedaSession::new(&engine);
    session.set_budget(Some(Budget::unlimited().with_max_rows(1)));

    let [contexts, connections, results] = requests();
    let top_k = session.submit_text(QUERY1).unwrap();
    assert!(top_k.tuples.len() <= 1, "submit: {} top-k tuples", top_k.tuples.len());
    assert!(session.context_summary().unwrap().total_contexts() <= 1);
    assert!(session.connection_summary().unwrap().len() <= 1);
    assert!(session.last_profile().unwrap().degraded, "submit must flag its clipped answer");
    assert_eq!(requests(), [contexts + 1, connections + 1, results]);

    let [name, _, _] = import_contexts(&engine);
    let top_k = session.select_contexts(0, vec![name]).unwrap();
    assert!(top_k.tuples.len() <= 1, "select_contexts: {} top-k tuples", top_k.tuples.len());
    assert!(session.connection_summary().unwrap().len() <= 1);
    assert!(session.last_profile().unwrap().degraded);
    assert_eq!(requests(), [contexts + 1, connections + 2, results]);

    let complete = session.complete_results().unwrap();
    assert!(complete.len() <= 1, "complete_results: {} rows", complete.len());
    assert!(session.last_profile().unwrap().degraded);
    assert_eq!(requests(), [contexts + 1, connections + 2, results + 1]);

    // The label-probe ceiling covers the connection discovery too: the
    // search spends it, so no connection is discovered.
    session.set_budget(Some(Budget::unlimited().with_max_label_probes(1)));
    session.submit_text(QUERY1).unwrap();
    assert!(session.last_profile().unwrap().degraded);
    assert!(session.connection_summary().unwrap().is_empty());
}

/// A `submit` runs `CONTEXTS`, then `CONNECTIONS`: a context summary the
/// session budget clipped shows in the stage's profile even when the top-k
/// and its connections fit the ceiling.
#[test]
fn a_clipped_context_summary_flags_its_submit_degraded() {
    let engine = engine();
    let full = engine.reader().execute_text("CONTEXTS FOR (trade_country, *)").unwrap();
    assert!(full.contexts().unwrap().total_contexts() > 1, "the summary must be clippable");
    let mut session = SedaSession::new(&engine);
    session.set_k(1);
    session.set_budget(Some(Budget::unlimited().with_max_rows(1)));
    let top_k = session.submit_text("(trade_country, *)").unwrap();
    assert_eq!(top_k.tuples.len(), 1);
    assert!(session.connection_summary().unwrap().len() <= 1);
    assert_eq!(session.context_summary().unwrap().total_contexts(), 1);
    assert!(session.last_profile().unwrap().degraded, "the clipped contexts must show");
}

/// The session is its request: rendered, each stage's request replays
/// through a fresh reader to the session's own payloads.
#[test]
fn the_session_replays_as_request_text() {
    let engine = engine();
    let mut session = SedaSession::new(&engine);
    session.set_k(10);
    session.submit_text(QUERY1).unwrap();
    for (term, path) in import_contexts(&engine).into_iter().enumerate() {
        session.select_contexts(term, vec![path]).unwrap();
    }
    let same_item: Vec<_> = session
        .connection_summary()
        .unwrap()
        .connections
        .iter()
        .filter(|c| c.length() == 2)
        .cloned()
        .collect();
    assert!(!same_item.is_empty());
    session.select_connections(same_item).unwrap();
    session.complete_results().unwrap();

    let request = session.request().unwrap().clone();
    assert_eq!(request.statement, Statement::CompleteResults);
    let text = request.render();
    assert!(text.contains(" WITH 2 IN ") && text.contains(" VIA "), "{text}");
    let mut reader = engine.reader();
    let replayed = reader.execute_text(&text).unwrap();
    assert_eq!(replayed.table(), Some(session.complete().unwrap()), "{text}");

    // Each stage's request carries only the clauses its statement reads:
    // `CONNECTIONS` the `WITH` selections, `CONTEXTS` neither clause.
    let as_text = |statement: Statement| {
        let reads_with = statement != Statement::ContextSummary;
        let path_selections = if reads_with { request.path_selections.clone() } else { vec![] };
        SedaRequest { statement, path_selections, connections: vec![], ..request.clone() }.render()
    };
    let text = as_text(Statement::ConnectionSummary { k: 10 });
    let replayed = reader.execute_text(&text).unwrap();
    assert_eq!(replayed.top_k(), Some(session.top_k().unwrap()), "{text}");
    assert_eq!(replayed.connections(), Some(session.connection_summary().unwrap()), "{text}");
    let text = as_text(Statement::ContextSummary);
    let replayed = reader.execute_text(&text).unwrap();
    assert_eq!(replayed.contexts(), Some(session.context_summary().unwrap()), "{text}");
}
