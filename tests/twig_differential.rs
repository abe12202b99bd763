//! Front-door differential test of the twig path: every `TWIG`, same-root
//! `RESULTS` and `CUBE` shape the benchmark sends, over the four datagen
//! corpus shapes, must return the payload the **previous evaluator**
//! (`crates/twigjoin/tests/reference/mod.rs`, which shares no code with the
//! shipping one) yields when it takes the new one's place in the same engine
//! calls — over *every* document, so the comparison also covers the document
//! pre-filter of `RESULTS` / `CUBE`.
//!
//! The second half pins that pre-filter as a count: the `complete-results`
//! span reports `visited=` the nodes of exactly the documents holding an
//! indexed match on the chosen path when a term's search needs a token, and
//! of the whole collection when it does not.

#[path = "../crates/twigjoin/tests/reference/mod.rs"]
mod reference;

use seda_core::{EngineConfig, ResponsePayload, SedaEngine, SedaRequest, SedaResponse, Statement};
use seda_datagen::{names, Dataset};
use seda_olap::{aggregate, CubeQuery, QueryResultTable, Registry};
use seda_twigjoin::{Axis, TwigPattern};
use seda_xmlstore::{Collection, NodeId, PathId};

const IMPORT_COUNTRY: &str = "/country/economy/import_partners/item/trade_country";
const IMPORT_PERCENTAGE: &str = "/country/economy/import_partners/item/percentage";

fn engine(dataset: Dataset) -> SedaEngine {
    let collection = dataset.generate_scaled(0.05).expect("datagen");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

/// The root labels of the corpus; the byte-for-byte claim against the parent
/// only holds where none of them also names a nested element.
fn assert_root_labels_do_not_nest(collection: &Collection) {
    let root = |d: &seda_xmlstore::Document| d.node(d.root()).expect("not empty").name;
    let roots: Vec<_> = collection.documents().map(root).collect();
    for document in collection.documents() {
        for (ordinal, node) in document.iter().skip(1) {
            let name = collection.symbols().resolve(node.name);
            assert!(!roots.contains(&node.name), "{name} nests at {ordinal} of {}", document.uri);
        }
    }
}

/// Per term of a complete-result request, the candidate context paths: the
/// `WITH` selection, else the paths the term's tag allows.
fn term_paths(collection: &Collection, request: &SedaRequest) -> Vec<Vec<PathId>> {
    let query = request.query.as_ref().expect("the statement has a query");
    (0..query.terms.len())
        .map(|term| match request.path_selections.iter().find(|(t, _)| *t == term) {
            Some((_, paths)) => paths
                .iter()
                .map(|p| collection.paths().get_str(collection.symbols(), p).expect("a known path"))
                .collect(),
            None => query.terms[term]
                .context
                .allowed_paths(collection)
                .expect("the benchmark's unselected terms name a tag"),
        })
        .collect()
}

/// The pattern node `path` ends at, in a pattern `from_paths` built.
fn node_of(pattern: &TwigPattern, path: &str) -> usize {
    path.trim_start_matches('/').split('/').skip(1).fold(pattern.root(), |current, label| {
        let children = &pattern.node(current).children;
        *children
            .iter()
            .find(|&&c| pattern.node(c).label == label && pattern.node(c).axis == Axis::Child)
            .expect("from_paths holds every step")
    })
}

/// R(q) as the engine computes it around its evaluator — one twig per
/// combination of the terms' paths, predicates attached, columns in term
/// order, rows united, sorted and deduplicated — with the reference evaluator
/// in the evaluator's place.
fn reference_results(engine: &SedaEngine, request: &SedaRequest) -> QueryResultTable {
    let collection = engine.collection();
    let query = request.query.as_ref().expect("the statement has a query");
    let term_paths = term_paths(collection, request);
    let mut table = QueryResultTable::new(query.terms.iter().map(|t| t.label()).collect());
    let combinations: usize = term_paths.iter().map(Vec::len).product();
    for combination in 0..combinations {
        let mut rest = combination;
        let chosen: Vec<PathId> = term_paths
            .iter()
            .map(|paths| {
                let path = paths[rest % paths.len()];
                rest /= paths.len();
                path
            })
            .collect();
        let strings: Vec<String> = chosen.iter().map(|&p| collection.path_string(p)).collect();
        let refs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let mut pattern =
            TwigPattern::from_paths(&refs).expect("the benchmark's paths share a root");
        let term_nodes: Vec<usize> = strings.iter().map(|path| node_of(&pattern, path)).collect();
        for (term, &node) in query.terms.iter().zip(&term_nodes) {
            assert!(pattern.node(node).predicate.is_none(), "no two terms share a path here");
            if !term.search.is_match_all() {
                pattern.set_predicate(node, term.search.clone());
            }
        }
        let matches = reference::evaluate_twig(collection, &pattern);
        for row in &matches.rows {
            let cells = term_nodes.iter().zip(&chosen).map(|(&node, &path)| {
                (row[matches.column_of(node).expect("term nodes are outputs")], path)
            });
            table.rows.push(cells.collect());
        }
    }
    table.rows.sort();
    table.rows.dedup();
    table
}

/// The `TWIG` payload around the reference evaluator: one column per output
/// node named by its label chain, every cell with its node's own context.
fn reference_twig(engine: &SedaEngine, path: &str) -> QueryResultTable {
    let collection = engine.collection();
    let pattern = TwigPattern::parse(path).expect("twig path parses");
    let names = pattern.output_nodes().into_iter().map(|node| {
        let mut labels = vec![pattern.node(node).label.clone()];
        let mut current = node;
        while let Some(parent) = pattern.node(current).parent {
            labels.push(pattern.node(parent).label.clone());
            current = parent;
        }
        labels.reverse();
        format!("/{}", labels.join("/"))
    });
    let mut table = QueryResultTable::new(names.collect());
    for row in reference::evaluate_twig(collection, &pattern).rows {
        let cell = |node: NodeId| (node, collection.context(node).expect("node exists"));
        table.rows.push(row.into_iter().map(cell).collect());
    }
    table
}

/// Executes `text` and compares the payload with the reference's; returns
/// the response for further checks.
fn assert_matches_reference(engine: &SedaEngine, text: &str) -> SedaResponse {
    let request = SedaRequest::parse(text).expect("request parses");
    let response = engine.reader().execute(&request).expect("request executes");
    match (&request.statement, &response.payload) {
        (Statement::Twig { path }, ResponsePayload::Table(table)) => {
            assert_eq!(table, &reference_twig(engine, path), "{text}");
        }
        (Statement::CompleteResults, ResponsePayload::Table(table)) => {
            assert_eq!(table, &reference_results(engine, &request), "{text}");
        }
        (
            Statement::Cube { fact, group_by, agg, measure },
            ResponsePayload::Cube { build, cube },
        ) => {
            let table = reference_results(engine, &request);
            let expected = engine.build_star_schema(&table, &request.cube_options);
            assert_eq!(build, &expected, "{text}");
            let group_by: Vec<&str> = group_by.iter().map(String::as_str).collect();
            let measure = measure.as_deref().unwrap_or(fact);
            let query = CubeQuery::sum(&group_by, measure).with_agg(*agg);
            let fact_table = expected.schema.fact(fact).expect("the fact was derived");
            assert_eq!(
                cube,
                &aggregate(fact_table, &query).expect("the cube aggregates"),
                "{text}"
            );
        }
        other => panic!("{text}: unexpected statement / payload pair {other:?}"),
    }
    response
}

/// What the benchmark's analyze rounds send (`benchmark/src/workloads.rs`),
/// plus the same shapes on the two workloads whose rounds bypass the twig
/// evaluator; literals from the pools the generators draw from.
fn statements(dataset: Dataset) -> Vec<String> {
    match dataset {
        Dataset::WorldFactbook => {
            let query1 = |country: &str| {
                format!("(*, \"{country}\") AND (trade_country, *) AND (percentage, *)")
            };
            let with3 = format!(
                "WITH 0 IN /country/name WITH 1 IN {IMPORT_COUNTRY} WITH 2 IN {IMPORT_PERCENTAGE}"
            );
            let mut out: Vec<String> = ["United States", names::COUNTRIES[1], names::COUNTRIES[5]]
                .iter()
                .map(|country| format!("RESULTS FOR {} {with3}", query1(country)))
                .collect();
            out.push(format!(
                "CUBE import-trade-percentage BY import-country AGG sum \
                 FOR (trade_country, *) AND (percentage, *) \
                 WITH 0 IN {IMPORT_COUNTRY} WITH 1 IN {IMPORT_PERCENTAGE}"
            ));
            out.push(format!(
                "CUBE import-trade-percentage BY country, year, import-country AGG sum \
                 FOR {} {with3}",
                query1("United States")
            ));
            out.push("TWIG /country/economy//trade_country".to_string());
            out
        }
        Dataset::RecipeMl => {
            let mut out: Vec<String> = names::INGREDIENTS[..4]
                .iter()
                .map(|ingredient| format!("RESULTS FOR (title, *) AND (item, \"{ingredient}\")"))
                .collect();
            out.push("RESULTS FOR (title, \"Chicken\") AND (item, *)".to_string());
            out.push("TWIG /recipeml/recipe//item".to_string());
            out
        }
        Dataset::Mondial => vec![
            format!(
                "RESULTS FOR (name, \"{}\") AND (population, *) \
                 WITH 0 IN /country/name WITH 1 IN /country/population",
                names::COUNTRIES[2]
            ),
            "RESULTS FOR (name, *) AND (population, *) \
             WITH 0 IN /city/name WITH 1 IN /city/population"
                .to_string(),
            "TWIG /country//name".to_string(),
            "TWIG //name".to_string(),
        ],
        Dataset::GoogleBase => vec![
            format!(
                "RESULTS FOR (title, \"{}\") AND (price, *) AND (condition, new) \
                 WITH 0 IN /item/title WITH 1 IN /item/price WITH 2 IN /item/condition",
                names::PRODUCT_CATEGORIES[0]
            ),
            "TWIG /item/title".to_string(),
        ],
    }
}

#[test]
fn every_benchmark_twig_results_and_cube_shape_matches_the_reference_evaluator() {
    for dataset in Dataset::ALL {
        let engine = engine(dataset);
        assert_root_labels_do_not_nest(engine.collection());
        for text in statements(dataset) {
            let rows = assert_matches_reference(&engine, &text).profile.rows;
            assert!(rows > 0, "{dataset:?}: {text} came back empty");
        }
    }
}

/// The `visited=` counter of a traced request's `complete-results` span.
fn visited(engine: &SedaEngine, text: &str) -> usize {
    let mut reader = engine.reader();
    reader.set_tracing(true);
    let response = reader.execute_text(text).expect("request executes");
    let span = response.profile.spans.iter().find(|span| span.name == "complete-results");
    span.expect("a RESULTS request has a complete-results span").counters.nodes_visited
}

#[test]
fn the_document_pre_filter_narrows_exactly_when_a_search_needs_a_token() {
    let engine = engine(Dataset::RecipeMl);
    let collection = engine.collection();
    let item = collection
        .paths()
        .get_str(collection.symbols(), "/recipeml/recipe/ingredients/ing/item")
        .expect("the item path");
    let [x, y] = [names::INGREDIENTS[0], names::INGREDIENTS[1]];
    let word = x.split(' ').next().expect("an ingredient has a word");
    let whole_collection = collection.total_nodes();

    // Nodes of the documents with an `item` whose text satisfies `search`.
    let nodes_of_documents_holding = |search: &str| -> usize {
        let search = seda_textindex::FullTextQuery::parse(search).expect("search parses");
        let holds = |d: &&seda_xmlstore::Document| {
            d.iter().any(|(_, n)| {
                n.path == item && search.matches_text(n.text.as_deref().unwrap_or(""))
            })
        };
        collection.documents().filter(holds).map(|d| d.len()).sum()
    };

    // Searches no node without an indexed token satisfies: only the
    // documents holding a match are visited.
    let not_y = format!("\"{x}\" AND NOT \"{y}\"");
    for search in [format!("\"{x}\""), word.to_string(), not_y, format!("\"{x}\" OR \"{y}\"")] {
        let text = format!("RESULTS FOR (title, *) AND (item, {search})");
        assert!(assert_matches_reference(&engine, &text).profile.rows > 0, "{text}");
        let expected = nodes_of_documents_holding(&search);
        assert!(0 < expected && expected < whole_collection / 2, "{text}: {expected}");
        assert_eq!(visited(&engine, &text), expected, "{text}");
    }
    // Two predicates: the documents holding both.
    let text = format!("RESULTS FOR (title, \"Chicken\") AND (item, \"{x}\")");
    assert_matches_reference(&engine, &text);
    assert!(visited(&engine, &text) <= nodes_of_documents_holding(&format!("\"{x}\"")), "{text}");

    // Searches a node without any indexed token can satisfy: every document
    // is visited, as for `(item, *)`.
    let unnarrowed = [
        "*".to_string(),
        format!("NOT \"{x}\""),
        format!("\"{x}\" OR *"),
        format!("\"{x}\" OR NOT \"{y}\""),
    ];
    for search in unnarrowed {
        let text = format!("RESULTS FOR (title, *) AND (item, {search})");
        assert!(assert_matches_reference(&engine, &text).profile.rows > 0, "{text}");
        assert_eq!(visited(&engine, &text), whole_collection, "{text}");
    }

    // The cross-root join evaluates no twig, and a TWIG statement visits
    // every node of the collection exactly once.
    let mondial = self::engine(Dataset::Mondial);
    let cross_root = "RESULTS FOR (name, *) AND (name, *) \
                      WITH 0 IN /country/name WITH 1 IN /organization/name";
    assert_eq!(visited(&mondial, cross_root), 0);
    let mut reader = engine.reader();
    let transcript = reader
        .execute_text("EXPLAIN ANALYZE TWIG /recipeml/recipe//item")
        .expect("the request executes");
    let transcript = transcript.explain_transcript().expect("an explain payload").to_string();
    assert!(transcript.contains(&format!("visited={whole_collection} ")), "{transcript}");
    let results = reader
        .execute_text(&format!("EXPLAIN ANALYZE RESULTS FOR (title, *) AND (item, \"{x}\")"))
        .expect("the request executes");
    let transcript = results.explain_transcript().expect("an explain payload");
    assert!(transcript.contains("visited="), "{transcript}");
}
