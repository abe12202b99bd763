//! Cross-data-set smoke tests: the full engine (indexes, dataguides, top-k,
//! summaries, complete results, cube derivation) must work on every synthetic
//! corpus, not just the Factbook running example — SEDA's whole point is
//! handling heterogeneous repositories it has never seen.

use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine, SedaQuery, Session};
use seda_datagen::Dataset;
use seda_olap::{BuildOptions, Registry, RelativeKey, SchemaDef};

fn engine_for(dataset: Dataset) -> SedaEngine {
    let collection = dataset.generate_small().unwrap();
    SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap()
}

#[test]
fn mondial_queries_cross_documents_via_idref_edges() {
    let engine = engine_for(Dataset::Mondial);
    assert!(engine.graph().cross_edge_count() > 0, "Mondial is densely linked by IDREFs");
    let query = SedaQuery::parse(r#"(/sea/name, *) AND (/country/name, *)"#).unwrap();
    let result = engine.reader().complete_results(&query, &ContextSelections::none(), &[]).unwrap();
    assert!(!result.is_empty(), "seas and their bordering countries are connected");
    for row in &result.rows {
        assert_ne!(row[0].0.doc, row[1].0.doc, "sea and country live in different documents");
    }
}

#[test]
fn googlebase_supports_user_defined_facts_and_cubes() {
    let collection = Dataset::GoogleBase.generate_small().unwrap();
    let mut registry = Registry::new();
    registry.add(SchemaDef::dimension(
        "category",
        vec![seda_olap::ContextEntry::new("/item/category", RelativeKey::parse(&["/item/id"]))],
    ));
    registry.add(SchemaDef::fact(
        "price",
        vec![seda_olap::ContextEntry::new(
            "/item/price",
            RelativeKey::parse(&["/item/id", "/item/category"]),
        )],
    ));
    let engine = SedaEngine::build(collection, registry, EngineConfig::default()).unwrap();
    let query = SedaQuery::parse(r#"(category, *) AND (price, *)"#).unwrap();
    let result = engine.reader().complete_results(&query, &ContextSelections::none(), &[]).unwrap();
    assert!(!result.is_empty());
    let build = engine.build_star_schema(&result, &BuildOptions::default());
    let fact = build.schema.fact("price").expect("price fact table");
    assert!(fact.dimensions_form_key());
    assert!(build.matching.dimensions.contains(&"category".to_string()));
}

#[test]
fn recipeml_sessions_explore_contexts() {
    let engine = engine_for(Dataset::RecipeMl);
    let mut session = Session::new(&engine);
    session.submit_text(r#"(item, *) AND (qty, *)"#).unwrap();
    let summary = session.context_summary().unwrap();
    assert_eq!(summary.buckets.len(), 2);
    assert!(!summary.buckets[0].entries.is_empty());
    let complete = session.complete_results().unwrap();
    assert!(!complete.is_empty());
    // Ingredients pair with the quantity of the same `ing` element.
    let c = engine.collection();
    for row in complete.rows.iter().take(50) {
        let item_parent = c.node(row[0].0).unwrap().parent.unwrap();
        let qty_grandparent = c
            .node(
                c.node(row[1].0)
                    .unwrap()
                    .parent
                    .map(|p| seda_xmlstore::NodeId::new(row[1].0.doc, p))
                    .unwrap(),
            )
            .unwrap()
            .parent
            .unwrap();
        assert_eq!(item_parent, qty_grandparent, "qty's amt parent and item share the same ing");
    }
}

#[test]
fn keyword_search_works_on_every_dataset() {
    for dataset in Dataset::ALL {
        let engine = engine_for(dataset);
        let query = SedaQuery::parse(r#"(*, *)"#).unwrap();
        let summary = engine.context_summary(&query);
        assert!(
            summary.buckets[0].entries.len() > 1,
            "{}: the match-all bucket lists text-bearing contexts",
            dataset.name()
        );
        let topk = engine
            .reader()
            .top_k_governed(&query, &ContextSelections::none(), 5, &RequestContext::unlimited())
            .unwrap()
            .0;
        assert!(!topk.tuples.is_empty(), "{}: top-k over match-all", dataset.name());
    }
}
