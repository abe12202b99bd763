//! The cross-root `RESULTS` join, against code that shares nothing with it.
//!
//! When the chosen contexts of a `RESULTS` statement lie under different
//! document roots no twig can hold them, and the engine joins per-term
//! candidates by data-graph connectivity instead (`SedaEngine::graph_rows`):
//! per partial row it pins the row's first node and asks the connectivity
//! oracle about each candidate.  The reference here is the definition spelled
//! out — every combination of the per-term candidates
//! (`NodeIndex::evaluate_in_paths`), kept when plain breadth-first search
//! reaches every member from the first ([`bfs_is_connected_with`] on the whole
//! tuple) — over every datagen corpus shape that can pose the question.
//!
//! The second test pins the accounting: the label probes of that join reach
//! the response's [`seda_core::ExecProfile`] and its `complete-results` span,
//! and a same-root (twig) `RESULTS`, which probes nothing, keeps reporting 0.

use seda_core::{EngineConfig, SedaEngine, SedaRequest};
use seda_datagen::Dataset;
use seda_datagraph::{bfs_is_connected_with, TraversalScratch};
use seda_olap::Registry;
use seda_textindex::FullTextQuery;
use seda_xmlstore::{NodeId, PathId};

fn engine(dataset: Dataset) -> SedaEngine {
    let collection = dataset.generate_small().expect("datagen");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

/// Per root label of the corpus, up to two of its child paths (`/root/name`
/// first where it exists), in root-label order.
fn root_contexts(engine: &SedaEngine) -> Vec<Vec<String>> {
    let collection = engine.collection();
    let mut paths: Vec<String> = collection
        .paths()
        .iter()
        .map(|(_, path)| path.display(collection.symbols()))
        .filter(|path| path.matches('/').count() == 2)
        .collect();
    paths.sort_by_key(|path| (!path.ends_with("/name"), path.clone()));
    let mut by_root: Vec<(String, Vec<String>)> = Vec::new();
    for path in paths {
        let root = path.trim_start_matches('/').split('/').next().unwrap_or_default().to_string();
        match by_root.iter_mut().find(|(r, _)| *r == root) {
            Some((_, under)) if under.len() < 2 => under.push(path),
            Some(_) => {}
            None => by_root.push((root, vec![path])),
        }
    }
    by_root.sort();
    by_root.into_iter().map(|(_, under)| under).collect()
}

/// `RESULTS` over match-all terms, term `i` restricted to `contexts[i]`.
fn results_request(contexts: &[&str]) -> SedaRequest {
    let terms = vec!["(*, *)"; contexts.len()].join(" AND ");
    let with: Vec<String> =
        contexts.iter().enumerate().map(|(i, path)| format!("WITH {i} IN {path}")).collect();
    SedaRequest::parse(&format!("RESULTS FOR {terms} {}", with.join(" ")))
        .expect("results request parses")
}

/// The rows of the definition: the nested loop over the per-term candidates,
/// a combination kept when BFS from its first node reaches all the others.
/// `None` when there are more combinations than a debug build checks quickly.
fn reference_rows(engine: &SedaEngine, contexts: &[&str]) -> Option<Vec<Vec<(NodeId, PathId)>>> {
    let collection = engine.collection();
    let columns: Vec<(PathId, Vec<NodeId>)> = contexts
        .iter()
        .map(|text| {
            let path = collection.paths().get_str(collection.symbols(), text).expect("known path");
            let nodes = engine
                .node_index()
                .evaluate_in_paths(&FullTextQuery::Any, &[path])
                .into_iter()
                .map(|scored| scored.node)
                .collect();
            (path, nodes)
        })
        .collect();
    if columns.iter().map(|(_, nodes)| nodes.len()).product::<usize>() > 20_000 {
        return None;
    }
    let max_depth = engine.config().connection_max_depth;
    let mut scratch = TraversalScratch::new();
    let mut tuples: Vec<Vec<NodeId>> = vec![Vec::new()];
    for (_, nodes) in &columns {
        tuples = tuples
            .iter()
            .flat_map(|tuple| nodes.iter().map(move |&n| [&tuple[..], &[n]].concat()))
            .collect();
    }
    let mut rows: Vec<Vec<(NodeId, PathId)>> = tuples
        .into_iter()
        .filter(|tuple| bfs_is_connected_with(engine.graph(), &mut scratch, tuple, max_depth))
        .map(|tuple| tuple.into_iter().zip(columns.iter().map(|(path, _)| *path)).collect())
        .collect();
    rows.sort();
    rows.dedup();
    Some(rows)
}

#[test]
fn cross_root_results_equal_the_nested_loop_filtered_by_bfs() {
    for dataset in Dataset::ALL {
        let engine = engine(dataset);
        let roots = root_contexts(&engine);
        if roots.len() < 2 {
            // Google Base (`/item`) and RecipeML (`/recipeml`) have one root
            // label: every `RESULTS` there is a twig, the join cannot be
            // reached.
            assert!(
                matches!(dataset, Dataset::GoogleBase | Dataset::RecipeMl),
                "{}: one root label only",
                dataset.name()
            );
            continue;
        }
        // Ordered pairs over the first four roots; triples that add a third
        // root, or come back to the first root under another path (the
        // candidate then shares its document with the row's first node).
        let take = roots.len().min(4);
        let mut queries: Vec<Vec<&str>> = Vec::new();
        for a in 0..take {
            for b in (0..take).filter(|&b| b != a) {
                queries.push(vec![&roots[a][0], &roots[b][0]]);
                if let Some(c) = (0..take).find(|&c| c != a && c != b) {
                    queries.push(vec![&roots[a][0], &roots[b][0], &roots[c][0]]);
                }
                if let Some(other) = roots[a].get(1) {
                    queries.push(vec![&roots[a][0], &roots[b][0], other]);
                }
            }
        }
        let mut reader = engine.reader();
        let (mut compared, mut connected) = ([0usize; 4], 0usize);
        for contexts in &queries {
            let Some(expected) = reference_rows(&engine, contexts) else { continue };
            let response = reader.execute(&results_request(contexts)).expect("RESULTS executes");
            let table = response.table().expect("table payload");
            assert_eq!(table.rows, expected, "{}: {contexts:?}", dataset.name());
            compared[contexts.len()] += 1;
            connected += expected.len();
        }
        assert!(compared[2] >= 2 && compared[3] >= 2, "{}: {compared:?}", dataset.name());
        if dataset == Dataset::Mondial {
            // The IDREF web is what makes cross-root tuples exist at all.
            assert!(connected > 0, "Mondial's cross-root queries must connect something");
        }
    }
}

#[test]
fn cross_root_results_report_their_label_probes_and_twig_results_report_none() {
    let engine = engine(Dataset::Mondial);
    let mut reader = engine.reader();
    reader.set_tracing(true);
    let span_probes = |response: &seda_core::SedaResponse| {
        let span = response
            .profile
            .spans
            .iter()
            .find(|span| span.name == "complete-results")
            .expect("a traced RESULTS records its complete-results span");
        span.counters.label_probes
    };

    let cross_root = results_request(&["/country/name", "/organization/name"]);
    let before = reader.scratch_mut().traversal_mut().label_probes;
    let response = reader.execute(&cross_root).expect("cross-root RESULTS");
    let spent = reader.scratch_mut().traversal_mut().label_probes - before;
    assert!(!response.table().expect("table payload").rows.is_empty());
    assert!(spent > 0, "the cross-root join probes the oracle");
    assert_eq!(response.profile.label_probes, spent);
    assert_eq!(span_probes(&response), spent);
    assert!(response.profile.budget_spent >= spent, "probes count against the budget yardstick");

    let same_root = results_request(&["/country/name", "/country/population"]);
    let before = reader.scratch_mut().traversal_mut().label_probes;
    let response = reader.execute(&same_root).expect("same-root RESULTS");
    assert!(!response.table().expect("table payload").rows.is_empty());
    assert_eq!(reader.scratch_mut().traversal_mut().label_probes, before, "a twig probes nothing");
    assert_eq!(response.profile.label_probes, 0);
    assert_eq!(span_probes(&response), 0);
}
