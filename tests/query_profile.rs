//! Read-path regression test: document components are a build-time artifact
//! (built exactly once per engine, never per search).

use seda_core::{EngineConfig, SedaEngine, SedaQuery, SedaRequest};
use seda_datagen::{mondial, MondialConfig};
use seda_datagraph::doc_component_builds_on_this_thread;
use seda_olap::Registry;
use seda_topk::{SearchLimits, SearchScratch, TopKSearcher};

fn small_engine(parallelism: usize) -> SedaEngine {
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
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
    .expect("engine build")
}

#[test]
fn doc_components_built_once_per_engine_never_per_search() {
    // The component counter is thread-local and every build — a two-thread
    // one too, which moves only the node index — builds the data graph on
    // the calling thread, so the delta is exact.
    let before = doc_component_builds_on_this_thread();
    drop(small_engine(2));
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "a two-thread build computes document components once, on this thread"
    );
    let before = doc_component_builds_on_this_thread();
    let engine = small_engine(1);
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "engine build computes document components exactly once"
    );

    let query = SedaQuery::parse("(name, *) AND (population, *)").unwrap();
    let request = SedaRequest::builder().query(query.clone());
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
        let _ = reader.execute(&request.clone().top_k(k).build());
        let _ = searcher.search(&terms, k, &SearchLimits::unlimited(), &mut scratch);
        let _ = searcher.search_naive(&terms, k, &mut scratch);
    }
    assert_eq!(
        doc_component_builds_on_this_thread(),
        before + 1,
        "searches (TA and naive) must reuse the graph's cached components"
    );
}
