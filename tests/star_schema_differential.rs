//! Front-door differential test of the star schema and the cube: on Factbook
//! corpora (tiny, and paper scale at seed 21) the R(q) of the benchmark's
//! broad `CUBE` and of per-country Query 1 requests, executed from request
//! text, must derive what the string-based reference
//! (`crates/olap/tests/reference/mod.rs`, which shares no code with the coded
//! path) derives — warnings, fact tables, dimension tables and every cube of
//! `reference::cube_queries`, values to the bit — and each `CUBE` statement
//! over the same `FOR … WITH …` must answer as the reference's cube does.

#[path = "../crates/olap/tests/reference/mod.rs"]
mod reference;

use seda_core::{EngineConfig, SedaEngine};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::{BuildOptions, CubeQuery, Registry};

const IMPORT_COUNTRY: &str = "/country/economy/import_partners/item/trade_country";
const IMPORT_PERCENTAGE: &str = "/country/economy/import_partners/item/percentage";

fn engine(config: &FactbookConfig) -> SedaEngine {
    let collection = factbook::generate(config).expect("datagen");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

/// The `FOR … WITH …` clauses: the benchmark's broad `CUBE`, and Query 1 for
/// two countries.
fn clauses() -> Vec<(String, &'static [&'static str])> {
    let query1 = |country: &str| {
        format!(
            "FOR (*, \"{country}\") AND (trade_country, *) AND (percentage, *) \
             WITH 0 IN /country/name WITH 1 IN {IMPORT_COUNTRY} WITH 2 IN {IMPORT_PERCENTAGE}"
        )
    };
    vec![
        (
            format!(
                "FOR (trade_country, *) AND (percentage, *) \
                 WITH 0 IN {IMPORT_COUNTRY} WITH 1 IN {IMPORT_PERCENTAGE}"
            ),
            &["import-country"],
        ),
        (query1("United States"), &["country", "year", "import-country"]),
        (query1("China"), &["year"]),
    ]
}

/// Judges every clause over `engine`: its R(q) under the default options and
/// with `GDP` added, and its `CUBE` statement.  Returns the fact rows of the
/// broad clause.
fn judge(engine: &SedaEngine) -> usize {
    let mut reader = engine.reader();
    let mut judged = 0;
    let mut broad_rows = None;
    for (clause, group_by) in clauses() {
        let response = reader.execute_text(&format!("RESULTS {clause}")).expect("RESULTS");
        let result = response.table().expect("a table");
        let add_gdp = BuildOptions { add: vec!["GDP".into()], ..BuildOptions::default() };
        for options in [BuildOptions::default(), add_gdp] {
            reference::assert_matches(engine.collection(), engine.registry(), result, &options);
        }
        let expected = reference::build(
            engine.collection(),
            engine.registry(),
            result,
            &BuildOptions::default(),
        );
        let Some(fact) = expected.fact_tables.iter().find(|t| t.name == "import-trade-percentage")
        else {
            continue;
        };
        let text =
            format!("CUBE import-trade-percentage BY {} AGG sum {clause}", group_by.join(", "));
        broad_rows.get_or_insert(fact.rows.len());
        let response = reader.execute_text(&text).expect("CUBE");
        let cube = response.cube().expect("a cube");
        let query = CubeQuery::sum(group_by, "import-trade-percentage");
        let (cells, scanned) = reference::aggregate(fact, &query).expect("known columns");
        let bits = |cells: Vec<(Vec<String>, f64, usize)>| -> Vec<(Vec<String>, u64, usize)> {
            cells.into_iter().map(|(c, v, n)| (c, v.to_bits(), n)).collect()
        };
        let got = cube.cells.iter().map(|c| (c.coordinates.clone(), c.value, c.count)).collect();
        assert_eq!((bits(got), cube.rows_scanned), (bits(cells), scanned), "{text}");
        judged += 1;
    }
    assert!(judged >= 2, "the broad and the United States cubes have rows");
    broad_rows.unwrap_or(0)
}

#[test]
fn tiny_factbook_cubes_match_the_reference() {
    assert!(judge(&engine(&FactbookConfig::tiny())) > 0);
}

#[test]
fn paper_scale_factbook_cubes_match_the_reference() {
    let rows = judge(&engine(&FactbookConfig { seed: 21, ..FactbookConfig::paper() }));
    assert!(rows > 1_000, "{rows} fact rows");
}
