//! Scratch hygiene of the pinned distance probes.
//!
//! The two-term join and the cross-root `RESULTS` join scatter the label of
//! one node into the traversal scratch and scan partners against it
//! (`seda_datagraph::pin`).  An entry left behind would read as a hub of every
//! later source and silently shorten its distances, through that scratch, for
//! good — the one way this design can return wrong answers without failing.
//! So one reader — one `SearchScratch` — is driven out of both loops through
//! every exit they have, and after each one the scratch must verify clean
//! (`scratch-pinned`) and answer an unlimited search and a cross-root
//! `RESULTS` exactly like a fresh one: tuples, score bits, counters, rows.
//!
//! (A panic unwinding through a pinned scope is covered where it can be
//! raised: `seda_datagraph`'s own tests, and `tests/fault_injection.rs` for
//! the reader's containment.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use seda_core::seda_topk::{
    SearchLimits, SearchScratch, TermInput, TopKConfig, TopKResult, TopKSearcher,
};
use seda_core::{EngineConfig, SedaEngine, SedaError, SedaQuery, SedaReader, SedaRequest};
use seda_datagen::Dataset;
use seda_olap::Registry;
use seda_xmlstore::{NodeId, PathId};

/// Small enough for `/country/name × /city/name` (1,374 connected pairs over
/// 20 countries) to overrun the frontier in the join's second stage, while a
/// source is pinned; large enough for `/sea/name × /country/name` (160 rows).
const FRONTIER_LIMIT: usize = 200;

fn engine() -> SedaEngine {
    let collection = Dataset::Mondial.generate_small().expect("datagen");
    let config = EngineConfig { complete_result_limit: FRONTIER_LIMIT, ..EngineConfig::default() };
    SedaEngine::build(collection, Registry::factbook_defaults(), config).expect("engine build")
}

fn term_inputs(engine: &SedaEngine, query_text: &str) -> Vec<TermInput> {
    SedaQuery::parse(query_text)
        .expect("query parses")
        .terms
        .iter()
        .map(|t| match t.context.allowed_paths(engine.collection()) {
            Some(paths) => TermInput::with_paths(t.search.clone(), paths),
            None => TermInput::new(t.search.clone()),
        })
        .collect()
}

fn cross_root(first: &str, second: &str) -> SedaRequest {
    SedaRequest::parse(&format!(
        "RESULTS FOR (*, *) AND (*, *) WITH 0 IN {first} WITH 1 IN {second}"
    ))
    .expect("results request parses")
}

/// What a clean scratch answers.
struct Expected {
    terms: Vec<TermInput>,
    top_k: TopKResult,
    results: SedaRequest,
    rows: Vec<Vec<(NodeId, PathId)>>,
    results_probes: u64,
}

impl Expected {
    fn from_fresh_scratches(engine: &SedaEngine) -> Expected {
        let terms = term_inputs(engine, "(name, *) AND (population, *)");
        let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
        let (top_k, breach) = searcher.search(
            &terms,
            &TopKConfig::with_k(10),
            &SearchLimits::unlimited(),
            &mut SearchScratch::new(),
        );
        assert!(breach.is_none());
        assert!(top_k.stats.label_probes > 0 && top_k.stats.tuples_disconnected > 0);
        let results = cross_root("/sea/name", "/country/name");
        let response = engine.reader().execute(&results).expect("cross-root RESULTS");
        let rows = response.table().expect("table payload").rows.clone();
        assert!(!rows.is_empty());
        Expected { terms, top_k, results, rows, results_probes: response.profile.label_probes }
    }

    /// The reader's scratch verifies clean and answers like a fresh one.
    fn assert_scratch_answers_alike(&self, reader: &mut SedaReader<'_>, after: &str) {
        let engine = reader.engine();
        reader
            .scratch_mut()
            .verify()
            .unwrap_or_else(|violations| panic!("scratch after {after}: {violations:?}"));
        let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
        let (top_k, breach) = searcher.search(
            &self.terms,
            &TopKConfig::with_k(10),
            &SearchLimits::unlimited(),
            reader.scratch_mut(),
        );
        assert!(breach.is_none(), "after {after}");
        assert_eq!(top_k, self.top_k, "unlimited search after {after}");
        let response = reader.execute(&self.results).expect("cross-root RESULTS");
        assert_eq!(response.table().expect("table payload").rows, self.rows, "rows after {after}");
        assert_eq!(response.profile.label_probes, self.results_probes, "probes after {after}");
        reader.scratch_mut().verify().expect("the checks themselves leave the scratch clean");
    }
}

/// One search of `terms` through the reader's scratch.
fn search(
    reader: &mut SedaReader<'_>,
    terms: &[TermInput],
    config: &TopKConfig,
    limits: &SearchLimits,
) -> (TopKResult, Option<&'static str>) {
    let engine = reader.engine();
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let (result, breach) = searcher.search(terms, config, limits, reader.scratch_mut());
    (result, breach.map(|b| b.resource))
}

#[test]
fn every_exit_of_the_pinned_loops_leaves_the_scratch_as_a_fresh_one() {
    let engine = engine();
    let expected = Expected::from_fresh_scratches(&engine);
    let full = &expected.top_k.stats;
    let terms = &expected.terms;
    let k10 = TopKConfig::with_k(10);
    let unlimited = SearchLimits::unlimited();
    let mut reader = engine.reader();

    // The counter ceilings, each set inside the search: sources have been
    // pinned by the time they trip.
    let ceilings = [
        ("sorted accesses", SearchLimits { max_sorted_accesses: Some(100), ..unlimited.clone() }),
        ("random accesses", SearchLimits { max_random_accesses: Some(2_000), ..unlimited.clone() }),
        ("candidate tuples", SearchLimits { max_tuples_scored: Some(1_000), ..unlimited.clone() }),
        ("label probes", SearchLimits { max_label_probes: Some(5_000), ..unlimited.clone() }),
    ];
    for (resource, limits) in ceilings {
        let (partial, breach) = search(&mut reader, terms, &k10, &limits);
        assert_eq!(breach, Some(resource));
        assert!(partial.stats.label_probes > 0, "{resource} tripped before any probe");
        assert!(partial.stats.tuples_scored < full.tuples_scored);
        if resource == "candidate tuples" {
            // Stopped inside a batch, the source still pinned: more pairs
            // were formed than scored.
            assert_eq!(partial.stats.tuples_scored, 1_000);
            assert!(partial.stats.random_accesses > 1_000, "{:?}", partial.stats);
        }
        expected.assert_scratch_answers_alike(&mut reader, resource);
    }

    // A deadline and a cancellation arriving mid-search.  Half the search's
    // own time puts either well inside the join; a run the host disturbed
    // (too early, or never) is repeated.  The time is the fastest of five:
    // the first search after a build runs slower than the ones that follow,
    // and half of *its* time can land after they have ended.
    let fastest = (0..5)
        .map(|_| {
            let start = Instant::now();
            search(&mut reader, terms, &k10, &unlimited);
            start.elapsed()
        })
        .min()
        .expect("five searches were timed");
    let half = fastest / 2;
    let mid_search = |stats: &seda_core::seda_topk::SearchStats| {
        stats.sorted_accesses > 0 && stats.sorted_accesses < full.sorted_accesses
    };
    let caught = (0..20).any(|_| {
        let limits = SearchLimits { deadline: Some(Instant::now() + half), ..unlimited.clone() };
        let (partial, breach) = search(&mut reader, terms, &k10, &limits);
        breach == Some("deadline") && mid_search(&partial.stats)
    });
    assert!(caught, "no deadline of {half:?} caught the search between two accesses");
    expected.assert_scratch_answers_alike(&mut reader, "an expiring deadline");
    let caught = (0..20).any(|_| {
        let flag = Arc::new(AtomicBool::new(false));
        let limits = SearchLimits { cancel: Some(flag.clone()), ..unlimited.clone() };
        let (partial, breach) = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(half.max(Duration::from_micros(50)));
                flag.store(true, Ordering::Relaxed);
            });
            search(&mut reader, terms, &k10, &limits)
        });
        breach == Some("cancelled") && mid_search(&partial.stats)
    });
    assert!(caught, "no cancellation after {half:?} caught the search between two accesses");
    expected.assert_scratch_answers_alike(&mut reader, "a cancellation");

    // The candidate limit, reached inside a batch: no breach, a stop.
    let clipped_config = TopKConfig { candidate_limit: 500, ..TopKConfig::with_k(10) };
    let (clipped, breach) = search(&mut reader, terms, &clipped_config, &unlimited);
    assert_eq!(breach, None);
    assert_eq!(clipped.stats.tuples_scored, 500);
    assert!(clipped.stats.candidates_truncated > 0 && clipped.stats.label_probes > 0);
    expected.assert_scratch_answers_alike(&mut reader, "candidate-limit clipping");

    // Early termination: one path's match-all scores are tied and `[x, x]` is
    // as compact as a tuple gets, so thirty of them close the threshold —
    // after batches large enough to have pinned.
    let names = term_inputs(&engine, "(/city/name, *) AND (/city/name, *)");
    let (early, breach) = search(&mut reader, &names, &TopKConfig::with_k(30), &unlimited);
    assert_eq!(breach, None);
    assert!(early.stats.early_terminated && early.stats.label_probes > 0, "{:?}", early.stats);
    expected.assert_scratch_answers_alike(&mut reader, "early termination");

    // A term without a match: the join returns before its loop.
    let unmatched = term_inputs(&engine, "(name, zzzunknownzzz) AND (population, *)");
    let (empty, breach) = search(&mut reader, &unmatched, &k10, &unlimited);
    assert_eq!(breach, None);
    assert!(empty.tuples.is_empty() && empty.stats.sorted_accesses == 0);
    expected.assert_scratch_answers_alike(&mut reader, "an empty list");

    // The cross-root join's own error exit: the frontier overruns its limit
    // while the row's first node is pinned.
    let overrun = reader.execute(&cross_root("/country/name", "/city/name"));
    match overrun {
        Err(SedaError::Limit { resource: "graph-join frontier tuples", spent, budget }) => {
            assert_eq!((spent, budget), (FRONTIER_LIMIT + 1, FRONTIER_LIMIT));
        }
        other => panic!("expected the frontier limit, got {other:?}"),
    }
    expected.assert_scratch_answers_alike(&mut reader, "the graph-join frontier limit");
}
