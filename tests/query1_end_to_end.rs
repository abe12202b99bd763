//! Experiment F3: the paper's Query 1 end to end on the Factbook-like corpus —
//! from keyword terms through context refinement to the Figure 3(c) fact and
//! dimension tables, including the automatically added `year` key column and
//! the fixed trade facts of the paper (China 15% / Canada 16.9% in 2006, …).

use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine, SedaQuery, Session};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::{BuildOptions, CubeQuery, Registry};

fn engine() -> SedaEngine {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default()).unwrap()
}

fn import_selection(engine: &SedaEngine) -> ContextSelections {
    let c = engine.collection();
    let mut selections = ContextSelections::none();
    selections.select(0, vec![c.paths().get_str(c.symbols(), "/country/name").unwrap()]);
    selections.select(
        1,
        vec![c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap()],
    );
    selections.select(
        2,
        vec![c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap()],
    );
    selections
}

#[test]
fn query1_fact_table_contains_the_papers_fixed_rows() {
    let engine = engine();
    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();
    let selections = import_selection(&engine);
    let result = engine.reader().complete_results(&query, &selections, &[]).unwrap();
    assert!(!result.is_empty());
    let build = engine.build_star_schema(&result, &BuildOptions::default());

    let fact = build.schema.fact("import-trade-percentage").expect("fact table derived");
    assert_eq!(fact.dimension_columns, vec!["country", "year", "import-country"]);
    assert!(fact.dimensions_form_key(), "year augmentation must restore the primary key");

    let rows: Vec<(String, String, String, String)> = fact
        .rows
        .iter()
        .map(|r| {
            (
                r.dimensions[0].clone(),
                r.dimensions[1].clone(),
                r.dimensions[2].clone(),
                r.measures[0].clone(),
            )
        })
        .collect();
    // Figure 3(c) rows present in the small corpus (years 2004-2006).
    for expected in [
        ("United States", "2006", "China", "15"),
        ("United States", "2006", "Canada", "16.9"),
        ("United States", "2005", "China", "13.8"),
        ("United States", "2005", "Mexico", "10.3"),
        ("United States", "2004", "China", "12.5"),
        ("United States", "2004", "Mexico", "10.7"),
    ] {
        let expected = (
            expected.0.to_string(),
            expected.1.to_string(),
            expected.2.to_string(),
            expected.3.to_string(),
        );
        assert!(rows.contains(&expected), "missing Figure 3 row {expected:?}");
    }

    // Dimension tables of Figure 3(c).
    let partners = build.schema.dimension("import-country").unwrap();
    assert!(partners.values.contains(&"China".to_string()));
    assert!(partners.values.contains(&"Canada".to_string()));
    let years = build.schema.dimension("year").unwrap();
    for y in ["2004", "2005", "2006"] {
        assert!(years.values.contains(&y.to_string()));
    }
}

#[test]
fn session_reproduces_the_same_cube_and_aggregates_it() {
    let engine = engine();
    let mut session = Session::new(&engine);
    session
        .submit_text(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
        .unwrap();
    let c = engine.collection();
    session
        .select_contexts(0, vec![c.paths().get_str(c.symbols(), "/country/name").unwrap()])
        .unwrap();
    session
        .select_contexts(
            1,
            vec![c
                .paths()
                .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
                .unwrap()],
        )
        .unwrap();
    session
        .select_contexts(
            2,
            vec![c
                .paths()
                .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
                .unwrap()],
        )
        .unwrap();
    let build = session.build_cube(&BuildOptions::default()).unwrap().clone();
    assert!(build.matching.facts.contains(&"import-trade-percentage".to_string()));
    assert!(build.matching.dimensions.contains(&"country".to_string()));

    let us_2006 = session
        .aggregate(
            "import-trade-percentage",
            &CubeQuery::sum(&["import-country"], "import-trade-percentage")
                .filter("year", "2006")
                .filter("country", "United States"),
        )
        .unwrap();
    let china = us_2006.cell(&["China"]).expect("China cell");
    assert!((china.value - 15.0).abs() < 1e-9, "paper: US imports 15% from China in 2006");
    let canada = us_2006.cell(&["Canada"]).expect("Canada cell");
    assert!((canada.value - 16.9).abs() < 1e-9);
}

#[test]
fn topk_results_for_query1_are_connected_and_ranked() {
    let engine = engine();
    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();
    let topk = engine
        .reader()
        .top_k_governed(&query, &ContextSelections::none(), 10, &RequestContext::unlimited())
        .unwrap()
        .0;
    assert!(!topk.tuples.is_empty());
    for window in topk.tuples.windows(2) {
        assert!(window[0].score >= window[1].score);
    }
    for tuple in &topk.tuples {
        assert_eq!(tuple.nodes.len(), 3);
        assert!(tuple.compactness > 0.0);
    }
}
