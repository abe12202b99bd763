//! Experiment A2: false-positive connections (Sec. 6.1).  Dataguide-level
//! connections that have no instantiation in the query result arise from (a)
//! keyword restrictions and (b) overlap merging; "the higher the overlap
//! threshold, the fewer the false positive connections".

use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine, SedaQuery};
use seda_datagen::{factbook, FactbookConfig};
use seda_datagraph::TraversalScratch;
use seda_dataguide::{
    discover_connections, false_positive_connections, guide_connection, guide_links, DataGuideSet,
    GuideLink,
};
use seda_olap::Registry;
use seda_xmlstore::PathId;

fn setup() -> (SedaEngine, Vec<(PathId, PathId)>, Vec<seda_dataguide::Connection>) {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap();
    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();
    let topk = engine
        .reader()
        .top_k_governed(&query, &ContextSelections::none(), 15, &RequestContext::unlimited())
        .unwrap()
        .0;
    let instantiated = discover_connections(
        engine.collection(),
        engine.graph(),
        &topk.node_tuples(),
        12,
        &mut TraversalScratch::new(),
        |_| true,
    );

    // Candidate pairs: trade_country x percentage contexts plus a pair that
    // the keyword restriction rules out (name x refugees origin).
    let c = engine.collection();
    let summary = engine.context_summary(&query);
    let mut pairs = Vec::new();
    for a in summary.buckets[1].paths() {
        for b in summary.buckets[2].paths() {
            pairs.push((a, b));
        }
    }
    if let (Some(name), Some(refugees)) = (
        c.paths().get_str(c.symbols(), "/country/name"),
        c.paths().get_str(c.symbols(), "/country/transnational_issues/refugees/country_of_origin"),
    ) {
        pairs.push((name, refugees));
    }
    (engine, pairs, instantiated)
}

/// The engine's collection merged into dataguides at `threshold`, with the
/// links the data graph draws between them.  The engine keeps neither: they
/// are built here, for the experiment.
fn guides_and_links(engine: &SedaEngine, threshold: f64) -> (DataGuideSet, Vec<GuideLink>) {
    let guides = DataGuideSet::build(engine.collection(), threshold).unwrap();
    let links = guide_links(engine.collection(), engine.graph(), &guides);
    (guides, links)
}

#[test]
fn false_positives_exist_and_are_a_subset_of_guide_connections() {
    let (engine, pairs, instantiated) = setup();
    let (guides, links) = guides_and_links(&engine, engine.config().dataguide_threshold);
    let (fp, total) =
        false_positive_connections(engine.collection(), &guides, &links, &instantiated, &pairs);
    assert!(total >= 1, "the dataguides connect the candidate pairs");
    assert!(fp <= total);
    assert!(fp >= 1, "cross import/export pairs and the refugees pair are never instantiated");
}

#[test]
fn higher_thresholds_do_not_increase_false_positives() {
    let (engine, pairs, instantiated) = setup();
    let mut previous = usize::MAX;
    for threshold in [0.1, 0.4, 0.9] {
        let (guides, links) = guides_and_links(&engine, threshold);
        let (fp, _total) =
            false_positive_connections(engine.collection(), &guides, &links, &instantiated, &pairs);
        assert!(
            fp <= previous,
            "false positives must not increase with the threshold ({previous} -> {fp} at {threshold})"
        );
        previous = fp;
    }
}

#[test]
fn instantiated_connections_are_never_false_positives() {
    let (engine, _, instantiated) = setup();
    let collection = engine.collection();
    let (guides, links) = guides_and_links(&engine, engine.config().dataguide_threshold);
    let (guides, links) = (&guides, links.as_slice());
    for connection in &instantiated {
        let pair = [(connection.from_path, connection.to_path)];
        let (fp, total) =
            false_positive_connections(collection, guides, links, &instantiated, &pair);
        assert_eq!(fp, 0, "an instantiated connection cannot be a false positive");
        // The dataguide summary knows about the connection too (it may route
        // it differently, but it must exist).
        if total == 1 {
            assert!(guide_connection(
                collection,
                guides,
                links,
                connection.from_path,
                connection.to_path
            )
            .is_some());
        }
    }
}
