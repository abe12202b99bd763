//! Read-path regression test: document components are a build-time artifact
//! (built exactly once per engine, never per search).

use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine, SedaQuery};
use seda_datagen::{mondial, MondialConfig};
use seda_datagraph::doc_component_builds_on_this_thread;
use seda_olap::Registry;
use seda_topk::{SearchLimits, SearchScratch, TopKConfig, TopKSearcher};

fn small_engine() -> SedaEngine {
    let config = MondialConfig {
        countries: 4,
        provinces: 4,
        cities: 6,
        seas: 2,
        rivers: 2,
        organizations: 2,
        features: 2,
        seed: 7,
    };
    SedaEngine::build(
        mondial::generate(&config).expect("generate mondial"),
        Registry::factbook_defaults(),
        EngineConfig::default(),
    )
    .expect("engine build")
}

#[test]
fn doc_components_built_once_per_engine_never_per_search() {
    // The component counter is thread-local and the default build
    // (parallelism = 1) merges on this thread, so the delta is exact.
    let before = doc_component_builds_on_this_thread();
    let engine = small_engine();
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "engine build computes document components exactly once"
    );

    let query = SedaQuery::parse("(name, *) AND (population, *)").unwrap();
    let selections = ContextSelections::none();
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let terms: Vec<seda_topk::TermInput> = query
        .terms
        .iter()
        .map(|t| match t.context.allowed_paths(engine.collection()) {
            Some(paths) => seda_topk::TermInput::with_paths(t.search.clone(), paths),
            None => seda_topk::TermInput::new(t.search.clone()),
        })
        .collect();
    let mut reader = engine.reader();
    let mut scratch = SearchScratch::new();
    for k in 1..=10 {
        let _ = reader.top_k_governed(&query, &selections, k, &RequestContext::unlimited());
        let _ = searcher.search(
            &terms,
            &TopKConfig::with_k(k),
            &SearchLimits::unlimited(),
            &mut scratch,
        );
        let _ = searcher.search_naive(&terms, &TopKConfig::with_k(k), &mut scratch);
    }
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "searches (TA and naive) must reuse the graph's cached components"
    );
}
