//! A twig's root is the document's root element, as its `/a/…` spelling says.
//!
//! The evaluator used to match the root pattern node at any depth, so a
//! same-root `RESULTS` restricted to `/city/name` also returned the `name` of
//! a `city` nested under `/country/province` — a node of *another* context,
//! labelled with the chosen one — and `TWIG /city/name` counted it, while
//! `TOPK … WITH 0 IN /city/name` did not: exactly the same-tag-different-
//! context heterogeneity the paper is about.  Now `/a` is the root element
//! and `//a` is the spelling for "an `a` anywhere".

use seda_core::{EngineConfig, SedaEngine, SedaRequest};
use seda_datagen::Dataset;
use seda_olap::Registry;
use seda_xmlstore::parse_collection;

fn build(collection: seda_xmlstore::Collection) -> SedaEngine {
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

#[test]
fn a_nested_element_with_the_roots_name_is_not_the_root() {
    let engine = build(
        parse_collection(vec![
            ("paris.xml", "<city><name>Paris</name></city>"),
            (
                "france.xml",
                "<country><name>France</name>\
                 <province><city><name>Lyon</name></city></province></country>",
            ),
        ])
        .expect("corpus parses"),
    );
    let collection = engine.collection();
    let mut reader = engine.reader();

    assert_cells_lie_on_their_paths(&engine, "RESULTS FOR (name, *) WITH 0 IN /city/name");
    let results =
        reader.execute_text("RESULTS FOR (name, *) WITH 0 IN /city/name").expect("results");
    let table = results.table().expect("table payload");
    assert_eq!(table.len(), 1, "{table:?}");
    let node = table.row(0).expect("one row")[0];
    assert_eq!(collection.content(node).expect("node exists"), "Paris");
    assert_eq!(collection.context_string(node).expect("node exists"), "/city/name");

    let twig = reader.execute_text("TWIG /city/name").expect("twig");
    assert_eq!(twig.table().expect("table payload").len(), 1);
    let anywhere = reader.execute_text("TWIG //city/name").expect("twig");
    let anywhere = anywhere.table().expect("table payload");
    assert_eq!(anywhere.len(), 2, "`//city` is the spelling of a city at any depth");
    let contexts: Vec<String> =
        anywhere.rows().map(|row| collection.context_string(row[0]).expect("node")).collect();
    assert_eq!(contexts, ["/city/name", "/country/province/city/name"]);

    // What the search side always answered.
    let top_k = reader.execute_text("TOPK 10 FOR (name, *) WITH 0 IN /city/name").expect("topk");
    assert_eq!(top_k.top_k().expect("top-k payload").tuples.len(), 1);
}

/// A `TWIG` column is named by the statement's own path, axes included: the
/// names used to drop the axes, so `/country/economy//trade_country` read
/// `/country/economy/trade_country` and `//city/name` read `/city/name`,
/// paths no node of those answers has.
#[test]
fn twig_columns_are_named_by_their_own_expression() {
    let engine = build(
        parse_collection(vec![
            ("paris.xml", "<city><name>Paris</name></city>"),
            (
                "us.xml",
                "<country><economy><import_partners><item>\
                 <trade_country>China</trade_country></item></import_partners></economy></country>",
            ),
        ])
        .expect("corpus parses"),
    );
    let mut reader = engine.reader();
    for path in ["/country/economy//trade_country", "//city/name"] {
        let twig = reader.execute_text(&format!("TWIG {path}")).expect("twig");
        let table = twig.table().expect("table payload");
        assert_eq!(table.column_names, [path]);
        assert_eq!(table.len(), 1, "{path}");
    }
}

/// One same-root `RESULTS` per datagen shape, a selective term in each.
fn same_root_results() -> [(Dataset, String); 4] {
    let ingredient = seda_datagen::names::INGREDIENTS[0];
    [
        (
            Dataset::GoogleBase,
            "RESULTS FOR (title, model) AND (price, *) AND (condition, used) \
             WITH 0 IN /item/title WITH 1 IN /item/price WITH 2 IN /item/condition"
                .to_string(),
        ),
        (
            Dataset::Mondial,
            "RESULTS FOR (name, \"Province\") AND (population, *) \
             WITH 0 IN /province/name WITH 1 IN /province/population"
                .to_string(),
        ),
        (Dataset::RecipeMl, format!("RESULTS FOR (title, *) AND (item, \"{ingredient}\")")),
        (
            Dataset::WorldFactbook,
            "RESULTS FOR (*, \"United States\") AND (trade_country, *) AND (percentage, *) \
             WITH 0 IN /country/name \
             WITH 1 IN /country/economy/import_partners/item/trade_country \
             WITH 2 IN /country/economy/import_partners/item/percentage"
                .to_string(),
        ),
    ]
}

/// Each cell of the `RESULTS` request `text` is a node whose context — the
/// cell's path column — is a path the request selected, and whose text
/// satisfies its term.
fn assert_cells_lie_on_their_paths(engine: &SedaEngine, text: &str) {
    let collection = engine.collection();
    let request = SedaRequest::parse(text).expect("request parses");
    let query = request.query.clone().expect("a RESULTS request has a query");
    let response = engine.reader().execute(&request).expect("results");
    let table = response.table().expect("table payload");
    assert!(!table.is_empty(), "{text} matched nothing");
    for row in table.rows() {
        for (column, &node) in row.iter().enumerate() {
            let path = collection.context_string(node).expect("node exists");
            let selected = request.path_selections.iter().find(|(term, _)| *term == column);
            if let Some((_, paths)) = selected {
                assert!(paths.contains(&path), "{text}");
            }
            let content = collection.node(node).expect("node exists").text.clone();
            assert!(
                query.terms[column].search.matches_text(content.as_deref().unwrap_or("")),
                "{content:?} does not satisfy term {column} of {text}"
            );
        }
    }
}

#[test]
fn every_cell_of_a_same_root_results_lies_on_its_path_and_satisfies_its_term() {
    for (dataset, text) in same_root_results() {
        let engine = build(dataset.generate_small().expect("datagen"));
        assert_cells_lie_on_their_paths(&engine, &text);
    }
}
