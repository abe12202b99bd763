//! Experiment T1 (Table 1): dataguide statistics at the 40% overlap threshold
//! for the four data sets.  Absolute counts depend on corpus scale; the test
//! verifies the *shape* the paper reports: RecipeML collapses to exactly 3
//! dataguides, Google Base and Mondial reduce by an order of magnitude or
//! more, while the heterogeneous World Factbook retains a small reduction
//! factor (≈3 in the paper).

use seda_core::{EngineConfig, SedaEngine};
use seda_datagen::Dataset;
use seda_datagen::{
    factbook, googlebase, mondial, recipeml, FactbookConfig, GoogleBaseConfig, MondialConfig,
    RecipeMlConfig,
};
use seda_dataguide::DataGuideSet;
use seda_olap::Registry;

#[test]
fn recipeml_collapses_to_three_dataguides() {
    let collection = recipeml::generate(&RecipeMlConfig::small()).unwrap();
    let guides = DataGuideSet::build(&collection, 0.4).unwrap();
    assert_eq!(guides.len(), 3, "paper: 10988 documents -> 3 dataguides");
    let stats = guides.stats(collection.len());
    assert!(stats.reduction_factor > 60.0);
}

#[test]
fn googlebase_collapses_to_one_guide_per_category() {
    let config = GoogleBaseConfig { items: 600, categories: 24, ..GoogleBaseConfig::small() };
    let collection = googlebase::generate(&config).unwrap();
    let guides = DataGuideSet::build(&collection, 0.4).unwrap();
    assert_eq!(
        guides.len(),
        config.categories,
        "paper: 10000 documents -> 88 dataguides (one per flat category)"
    );
}

#[test]
fn mondial_reduces_by_more_than_an_order_of_magnitude() {
    let collection = mondial::generate(&MondialConfig::small()).unwrap();
    let guides = DataGuideSet::build(&collection, 0.4).unwrap();
    assert!(
        guides.len() * 10 <= collection.len(),
        "paper: 5563 documents -> 86 dataguides; got {} -> {}",
        collection.len(),
        guides.len()
    );
}

#[test]
fn factbook_remains_heterogeneous() {
    let collection = factbook::generate(&FactbookConfig::paper_scaled(80, 6)).unwrap();
    let guides = DataGuideSet::build(&collection, 0.4).unwrap();
    let stats = guides.stats(collection.len());
    // The paper reports a reduction factor of only ~3.2 (1600 -> 500); allow a
    // generous band but require the corpus to stay far from fully collapsed.
    assert!(
        stats.reduction_factor >= 1.5 && stats.reduction_factor <= 40.0,
        "factbook reduction factor {} out of the expected band",
        stats.reduction_factor
    );
    assert!(guides.len() >= 20, "factbook must retain many dataguides, got {}", guides.len());
}

#[test]
fn every_document_is_assigned_to_exactly_one_guide() {
    let collection = mondial::generate(&MondialConfig::small()).unwrap();
    let guides = DataGuideSet::build(&collection, 0.4).unwrap();
    let mut covered = 0;
    for (_, guide) in guides.iter() {
        covered += guide.documents().len();
    }
    assert_eq!(covered, collection.len());
    for doc in collection.documents() {
        assert!(guides.guide_of_document(doc.id).is_some());
    }
}

/// The engine keeps no dataguides: its Table 1 statistics are the set built
/// over its collection at its configured threshold, whatever the threshold.
#[test]
fn engine_statistics_are_the_dataguide_set_built_on_demand() {
    for dataset in Dataset::ALL {
        let collection = dataset.generate_small().unwrap();
        for threshold in [0.0, 0.4, 1.0] {
            let expected = DataGuideSet::build(&collection, threshold).unwrap();
            let config = EngineConfig { dataguide_threshold: threshold, ..EngineConfig::default() };
            let engine = SedaEngine::build(collection.clone(), Registry::new(), config).unwrap();
            assert_eq!(
                engine.dataguide_stats().unwrap(),
                expected.stats(collection.len()),
                "{} at {threshold}",
                dataset.name()
            );
        }
    }
}
