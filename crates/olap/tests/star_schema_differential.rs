//! The dictionary-encoded star schema and cube against the string-based
//! reference (`tests/reference/mod.rs`, which shares no code with them):
//! matching, warnings, fact tables, dimension tables and every cube of
//! `reference::cube_queries` — all five aggregation functions, filters on a
//! member and on an absent value — over the Fig. 3 corpus, augmented facts
//! across both GDP spellings, merged same-key facts, a non-key fact with
//! duplicate dimensions, per-context keys and the empty result.  The Factbook
//! corpora, driven from request text, are judged by the root suite's
//! `tests/star_schema_differential.rs`.

mod reference;

use seda_olap::{
    BuildOptions, ContextEntry, FactTable, QueryResultTable, Registry, RelativeKey, SchemaDef,
};
use seda_xmlstore::{parse_collection, Collection, NodeId};

/// Three US documents with the Figure 3(c) import partners; 2004 spells its
/// GDP `GDP`, the later years `GDP_ppp`, and 2006 has no population.
fn us_collection() -> Collection {
    let document = |year: u16, gdp: &str, population: &str, partners: &[(&str, &str)]| {
        let items: String = partners
            .iter()
            .map(|(country, pct)| {
                format!(
                    "<item><trade_country>{country}</trade_country>\
                     <percentage>{pct}</percentage></item>"
                )
            })
            .collect();
        format!(
            "<country><name>United States</name><year>{year}</year>{population}\
             <economy>{gdp}<import_partners>{items}</import_partners></economy></country>"
        )
    };
    let documents = [
        document(
            2004,
            "<GDP>11.6T</GDP>",
            "<population>293M</population>",
            &[("China", "12.5"), ("Mexico", "10.7"), ("Canada", "n/a")],
        ),
        document(
            2005,
            "<GDP_ppp>12.0T</GDP_ppp>",
            "<population>296M</population>",
            &[("China", "13.8"), ("Mexico", "10.3"), ("Japan", "NaN")],
        ),
        document(2006, "<GDP_ppp>12.3T</GDP_ppp>", "", &[("China", "15"), ("Canada", "16.9")]),
    ];
    let named: Vec<(String, String)> =
        documents.iter().enumerate().map(|(i, xml)| (format!("us{i}.xml"), xml.clone())).collect();
    parse_collection(named.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str()))).unwrap()
}

/// The nodes of `path`, in document order.
fn nodes(c: &Collection, path: &str) -> Vec<NodeId> {
    c.nodes_with_path(c.paths().get_str(c.symbols(), path).unwrap())
}

/// Query 1's R(q): (name, trade_country, percentage) within one item.
fn query1_result(c: &Collection) -> QueryResultTable {
    let mut table = QueryResultTable::new(vec!["name".into(), "tc".into(), "pct".into()]);
    let countries = nodes(c, "/country/economy/import_partners/item/trade_country");
    let percentages = nodes(c, "/country/economy/import_partners/item/percentage");
    for (tc, pct) in countries.into_iter().zip(percentages) {
        let name = nodes(c, "/country/name").into_iter().find(|n| n.doc == tc.doc).unwrap();
        table.push_row(&[name, tc, pct]);
    }
    table
}

/// The Figure 3(b) registry plus a population fact keyed like GDP and a
/// percentage fact keyed by the country alone — not a key.
fn registry() -> Registry {
    let mut registry = Registry::factbook_defaults();
    registry.add(SchemaDef::fact(
        "population",
        vec![ContextEntry::new(
            "/country/population",
            RelativeKey::parse(&["/country/name", "/country/year"]),
        )],
    ));
    registry.add(SchemaDef::fact(
        "pct-by-country",
        vec![ContextEntry::new(
            "/country/economy/import_partners/item/percentage",
            RelativeKey::parse(&["/country/name"]),
        )],
    ));
    registry
}

fn options(add: &[&str], remove: &[&str]) -> BuildOptions {
    let names = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
    BuildOptions { add: names(add), remove: names(remove) }
}

#[test]
fn the_figure_3_cube_matches_the_reference() {
    let c = us_collection();
    let build = reference::assert_matches(
        &c,
        &Registry::factbook_defaults(),
        &query1_result(&c),
        &BuildOptions::default(),
    );
    let fact = build.schema.fact("import-trade-percentage").unwrap();
    assert_eq!(fact.len(), 8);
    assert!(fact.dimensions_form_key());
}

#[test]
fn added_gdp_across_both_spellings_matches_the_reference() {
    let c = us_collection();
    let build =
        reference::assert_matches(&c, &registry(), &query1_result(&c), &options(&["GDP"], &[]));
    assert_eq!(build.schema.fact("GDP").unwrap().len(), 3, "one GDP a year, either spelling");
}

#[test]
fn same_key_facts_merge_as_the_reference_merges_them() {
    let c = us_collection();
    let result = query1_result(&c);
    let build = reference::assert_matches(
        &c,
        &registry(),
        &result,
        &options(&["GDP", "population"], &["import-trade-percentage"]),
    );
    let merged = build.schema.fact("GDP+population").expect("GDP and population merge");
    assert_eq!(merged.measure_columns(), ["GDP", "population"]);
    // 2006 has no population: its measure is empty.
    assert_eq!(merged.row(2).unwrap().measure(1), "");
}

#[test]
fn a_non_key_fact_with_duplicate_dimensions_matches_the_reference() {
    let c = us_collection();
    let build = reference::assert_matches(
        &c,
        &registry(),
        &query1_result(&c),
        &options(&["pct-by-country"], &[]),
    );
    let fact = build.schema.fact("pct-by-country").unwrap();
    assert!(!fact.dimensions_form_key());
    assert_eq!(fact.column_values(0), ["United States"]);
}

#[test]
fn per_context_keys_match_the_reference() {
    let c = parse_collection(vec![
        ("r0.xml", "<r><name>R</name><a><k>K1</k><v>1</v></a><b><j>J2</j><w>2</w></b></r>"),
        ("r1.xml", "<r><name>S</name><a><v>3</v></a><b><j>J2</j><w>4</w><w>5</w></b></r>"),
    ])
    .unwrap();
    let mut registry = Registry::new();
    registry.add(SchemaDef::dimension(
        "kj",
        vec![
            ContextEntry::new("/r/a/k", RelativeKey::parse(&["/r/name", "."])),
            ContextEntry::new("/r/b/j", RelativeKey::parse(&["/r/name", "."])),
        ],
    ));
    let fact = |w_key: &[&str]| {
        SchemaDef::fact(
            "m",
            vec![
                ContextEntry::new("/r/a/v", RelativeKey::parse(&["/r/name", "../k"])),
                ContextEntry::new("/r/b/w", RelativeKey::parse(w_key)),
            ],
        )
    };
    let mut result = QueryResultTable::new(vec!["m".into()]);
    for node in nodes(&c, "/r/a/v").into_iter().chain(nodes(&c, "/r/b/w")) {
        result.push_row(&[node]);
    }
    // One key per context, naming the same columns: every instance with a
    // key is a row; r1's `a` has no `k`.
    registry.add(fact(&["/r/name", "../j"]));
    let build = reference::assert_matches(&c, &registry, &result, &BuildOptions::default());
    assert_eq!(build.schema.fact("m").unwrap().len(), 4);
    assert_eq!(build.warnings.len(), 1, "{:?}", build.warnings);
    // A key naming other columns leaves its context out, once, by name.
    registry.add(fact(&["/r/name"]));
    let build = reference::assert_matches(&c, &registry, &result, &BuildOptions::default());
    assert_eq!(build.schema.fact("m").unwrap().len(), 1);
}

#[test]
fn the_empty_result_matches_the_reference() {
    let c = us_collection();
    let empty = QueryResultTable::new(vec!["name".into(), "tc".into(), "pct".into()]);
    let build = reference::assert_matches(&c, &registry(), &empty, &BuildOptions::default());
    assert!(build.schema.fact_tables.is_empty());
    let build = reference::assert_matches(&c, &registry(), &empty, &options(&["GDP"], &[]));
    assert!(build.schema.fact_tables.is_empty(), "no document, no instance");
    let no_rows: [[&str; 2]; 0] = [];
    let table = FactTable::from_rows("f", &["d"], &["f"], no_rows);
    for query in reference::cube_queries(&reference::as_reference(&table)) {
        reference::assert_cube_matches(&table, &reference::as_reference(&table), &query);
    }
}
