//! Experiment S1: the structural statistics of the World-Factbook-like corpus
//! that the paper quotes in Sec. 1 and Sec. 5 — a long tail of rare paths,
//! `/country` in almost every document, country names matching many distinct
//! contexts, and schema evolution across years.

use std::collections::HashSet;

use seda_datagen::{factbook, FactbookConfig};
use seda_textindex::{ContextIndex, CountStorage, FullTextQuery, NodeIndex};

fn corpus() -> seda_xmlstore::Collection {
    factbook::generate(&FactbookConfig::paper_scaled(120, 6)).unwrap()
}

#[test]
fn country_path_is_prominent_but_not_universal() {
    let c = corpus();
    let documents = c.path_counts().documents;
    let country = c.paths().get_str(c.symbols(), "/country").unwrap();
    let in_docs = documents[country.index()];
    // Paper: 1577 of 1600 documents.
    assert!(in_docs < c.len(), "a few territory-rooted documents must exist");
    assert!(in_docs as f64 >= 0.95 * c.len() as f64, "{in_docs}/{}", c.len());
}

#[test]
fn distinct_paths_form_a_long_tail() {
    let c = corpus();
    assert!(
        c.distinct_path_count() > 400,
        "expected a large number of distinct paths, got {}",
        c.distinct_path_count()
    );
    let documents = c.path_counts().documents;
    let rare = documents.iter().filter(|&&f| f <= 2).count();
    let prominent = documents.iter().filter(|&&f| f as f64 >= 0.9 * c.len() as f64).count();
    assert!(
        rare > prominent,
        "the tail of rare paths dominates ({rare} rare vs {prominent} prominent)"
    );
}

#[test]
fn united_states_matches_many_distinct_contexts() {
    let c = corpus();
    let nodes = NodeIndex::build(&c);
    let index = ContextIndex::build(&c, CountStorage::DocumentStore);
    let contexts = index.paths_matching(&nodes, &FullTextQuery::phrase("United States"));
    // Paper: 27 distinct paths.  The generator reproduces the same order of
    // magnitude (country name, capital, currency, import/export partners,
    // neighbors, refugee origins, aid donors, …); the exact count grows with
    // corpus size, so assert the qualitative claim: clearly more than the
    // 2–3 contexts a user would naively expect.
    assert!(contexts.len() >= 5, "only {} contexts match \"United States\"", contexts.len());
}

#[test]
fn refugees_path_is_rare() {
    let c = corpus();
    let documents = c.path_counts().documents;
    let refugees = c
        .paths()
        .get_str(c.symbols(), "/country/transnational_issues/refugees/country_of_origin")
        .expect("refugees path exists");
    let f = documents[refugees.index()];
    // Paper: 186 of 1600 documents (~12%).
    assert!(f * 100 / c.len() <= 25, "refugees path should be rare, found in {f}/{}", c.len());
    assert!(f > 0);
}

#[test]
fn schema_evolution_splits_gdp_by_year() {
    let c = corpus();
    let gdp = c.paths().get_str(c.symbols(), "/country/economy/GDP").unwrap();
    let gdp_ppp = c.paths().get_str(c.symbols(), "/country/economy/GDP_ppp").unwrap();
    let year_path = c.paths().get_str(c.symbols(), "/country/year").unwrap();
    let mut gdp_years = HashSet::new();
    for node in c.nodes_with_path(gdp) {
        let doc = c.document(node.doc).unwrap();
        gdp_years.insert(doc.content(doc.nodes_with_path(year_path)[0]));
    }
    let mut ppp_years = HashSet::new();
    for node in c.nodes_with_path(gdp_ppp) {
        let doc = c.document(node.doc).unwrap();
        ppp_years.insert(doc.content(doc.nodes_with_path(year_path)[0]));
    }
    assert!(gdp_years.iter().all(|y| y.parse::<u16>().unwrap() < 2005));
    assert!(ppp_years.iter().all(|y| y.parse::<u16>().unwrap() >= 2005));
    assert!(!gdp_years.is_empty() && !ppp_years.is_empty());
}
