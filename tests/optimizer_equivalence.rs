//! Optimizer equivalence: the compiled [`seda_core::PlanProgram`] executed by
//! the reader's interpreter must return byte-identical responses to the
//! pre-optimizer fixed-sequence executor (`execute_plan_unoptimized`, kept
//! verbatim as the oracle), across randomized datagen corpora and every
//! statement type.  Prepared statements must reproduce fresh executions too.
//!
//! Every rewrite pass is result-preserving by construction — normalization,
//! pushdown annotation, the single-keyword scan and access ordering all
//! leave payloads *and* work counters unchanged — so the
//! comparison here is full structural equality of the `Result`, with one
//! carve-out: warm-cache prepared re-executions legitimately skip
//! connectivity label probes, so that single counter is masked in the
//! prepared-reuse comparison only.

use proptest::prelude::*;

use seda_core::{
    EngineConfig, RequestContext, ResponsePayload, SedaEngine, SedaError, SedaRequest,
};
use seda_datagen::{
    googlebase, mondial, recipeml, GoogleBaseConfig, MondialConfig, RecipeMlConfig,
};
use seda_olap::{ContextEntry, Registry, RelativeKey, SchemaDef};
use seda_xmlstore::Collection;

fn engine(collection: Collection, registry: Registry) -> SedaEngine {
    SedaEngine::build(collection, registry, EngineConfig::default()).expect("engine build")
}

/// Registry with a numeric fact over the Google-Base corpus so the CUBE
/// statement has something to aggregate.
fn googlebase_registry() -> Registry {
    let mut registry = Registry::new();
    registry.add(SchemaDef::dimension(
        "category",
        vec![ContextEntry::new("/item/category", RelativeKey::parse(&["/item/id"]))],
    ));
    registry.add(SchemaDef::fact(
        "price",
        vec![ContextEntry::new("/item/price", RelativeKey::parse(&["/item/id", "/item/category"]))],
    ));
    registry
}

/// Executes `text` through the optimizer pipeline (the interpreter over the
/// compiled program) and through the fixed-sequence oracle, and asserts the
/// two outcomes are structurally identical — payload, profile counters, or
/// the exact same typed error.
fn assert_program_matches_oracle(engine: &SedaEngine, text: &str) -> Result<(), TestCaseError> {
    let request = SedaRequest::parse(text).expect("request parses");
    let plan = engine.prepare(&request).expect("request prepares");
    let mut reader = engine.reader();
    let optimized = reader.execute_plan_governed(&plan, &RequestContext::unlimited());
    let mut oracle_reader = engine.reader();
    let oracle = oracle_reader.execute_plan_unoptimized(&plan, &RequestContext::unlimited());
    match (&optimized, &oracle) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(&a.payload, &b.payload, "payload diverges: {}", text);
            prop_assert_eq!(a.profile.rows, b.profile.rows, "rows diverge: {}", text);
            prop_assert_eq!(
                a.profile.sorted_accesses,
                b.profile.sorted_accesses,
                "sorted accesses diverge: {}",
                text
            );
            prop_assert_eq!(
                a.profile.random_accesses,
                b.profile.random_accesses,
                "random accesses diverge: {}",
                text
            );
            prop_assert_eq!(
                a.profile.tuples_scored,
                b.profile.tuples_scored,
                "tuples scored diverge: {}",
                text
            );
            prop_assert_eq!(
                a.profile.label_probes,
                b.profile.label_probes,
                "label probes diverge: {}",
                text
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverge: {}", text),
        _ => prop_assert!(
            false,
            "outcomes diverge for {}: optimized {:?} vs oracle {:?}",
            text,
            optimized.as_ref().map(|r| r.profile.rows),
            oracle.as_ref().map(|r| r.profile.rows)
        ),
    }
    Ok(())
}

/// Masks the one counter warm-cache executions legitimately change.
fn normalized(mut payload: ResponsePayload) -> ResponsePayload {
    match &mut payload {
        ResponsePayload::TopK(result) => result.stats.label_probes = 0,
        ResponsePayload::Connections { top_k, .. } => top_k.stats.label_probes = 0,
        _ => {}
    }
    payload
}

/// Asserts a prepared statement re-executed several times keeps reproducing
/// a fresh `execute` of the same request (modulo label probes).
fn assert_prepared_matches_fresh(engine: &SedaEngine, text: &str) -> Result<(), TestCaseError> {
    let request = SedaRequest::parse(text).expect("request parses");
    let mut reader = engine.reader();
    let fresh = reader.execute(&request);
    let mut prepared = reader.prepare(&request).expect("request prepares");
    for round in 0..3 {
        let reused = prepared.execute(&mut reader);
        match (&fresh, &reused) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                normalized(a.payload.clone()),
                normalized(b.payload.clone()),
                "prepared round {} diverges: {}",
                round,
                text
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverge: {}", text),
            _ => prop_assert!(false, "outcomes diverge for {} at round {}", text, round),
        }
    }
    Ok(())
}

/// The six statement shapes over one corpus' query vocabulary.
fn statements(q: &str, single: &str, twig: &str, cube: Option<&str>, k: usize) -> Vec<String> {
    let mut texts = vec![
        format!("TOPK {k} FOR {q}"),
        format!("TOPK {k} FOR {single}"),
        format!("CONTEXTS FOR {q}"),
        format!("CONNECTIONS {k} FOR {q}"),
        format!("RESULTS FOR {q}"),
        format!("TWIG {twig}"),
    ];
    if let Some(cube) = cube {
        texts.push(cube.to_string());
    }
    texts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mondial-like corpora: IDREF-linked multi-document graphs, so the
    /// component-partitioned join sees both single- and multi-component
    /// shapes.
    #[test]
    fn program_matches_oracle_on_mondial(
        countries in 2usize..7,
        provinces in 1usize..8,
        cities in 1usize..10,
        seas in 1usize..4,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = MondialConfig {
            countries,
            provinces,
            cities,
            seas,
            rivers: 2,
            organizations: 2,
            features: 2,
            seed,
        };
        let engine = engine(mondial::generate(&config).expect("generate mondial"), Registry::new());
        let q = r#"(name, *) AND (population, *)"#;
        for text in statements(q, "(name, *)", "/country/name", None, k) {
            assert_program_matches_oracle(&engine, &text)?;
        }
        // A restricted term exercises normalize + pushdown concretely.
        assert_program_matches_oracle(
            &engine,
            &format!("TOPK {k} FOR {q} WITH 0 IN /country/name"),
        )?;
        assert_prepared_matches_fresh(&engine, &format!("TOPK {k} FOR {q}"))?;
    }

    /// Google-Base-like corpora: one document per item, no cross edges —
    /// every document is its own component — plus a registered numeric fact
    /// so the CUBE statement participates.
    #[test]
    fn program_matches_oracle_on_googlebase(
        items in 5usize..40,
        categories in 1usize..6,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = GoogleBaseConfig { items, categories, attributes_per_category: 4, seed };
        let engine = engine(
            googlebase::generate(&config).expect("generate googlebase"),
            googlebase_registry(),
        );
        let q = r#"(category, *) AND (price, *)"#;
        let cube = format!("CUBE price BY category AGG sum FOR {q}");
        for text in statements(q, "(price, *)", "/item/category", Some(&cube), k) {
            assert_program_matches_oracle(&engine, &text)?;
        }
        assert_prepared_matches_fresh(&engine, &cube)?;
        assert_prepared_matches_fresh(&engine, &format!("CONNECTIONS {k} FOR {q}"))?;
    }

    /// RecipeML-like corpora: three document shapes under one root, deep
    /// nesting, no cross edges.
    #[test]
    fn program_matches_oracle_on_recipeml(
        recipes in 10usize..50,
        menu_percent in 0u8..20,
        nutrition_percent in 0u8..20,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = RecipeMlConfig { recipes, menu_percent, nutrition_percent, seed };
        let engine =
            engine(recipeml::generate(&config).expect("generate recipeml"), Registry::new());
        let q = r#"(item, *) AND (qty, *)"#;
        for text in statements(q, "(item, *)", "/recipeml/recipe/head/title", None, k) {
            assert_program_matches_oracle(&engine, &text)?;
        }
        assert_prepared_matches_fresh(&engine, &format!("RESULTS FOR {q}"))?;
    }
}

/// Non-random anchors: the exact fixed corpora of the bench suite, plus the
/// degraded-k edge cases the strategies above rarely hit.
#[test]
fn program_matches_oracle_on_fixed_corpora_and_edge_ks() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    for k in [0, 1, 1000] {
        let text = format!("TOPK {k} FOR (name, *) AND (population, *)");
        assert_program_matches_oracle(&engine, &text).expect("equivalence");
        let text = format!("TOPK {k} FOR (name, *)");
        assert_program_matches_oracle(&engine, &text).expect("equivalence");
    }
}

/// `set_k` on a prepared statement keeps matching a freshly planned request
/// with the same k, including across the scan↔join strategy boundary.
#[test]
fn prepared_set_k_matches_fresh_plans() {
    let engine = engine(
        recipeml::generate(&RecipeMlConfig::small()).expect("generate recipeml"),
        Registry::new(),
    );
    let mut reader = engine.reader();
    let mut prepared = reader
        .prepare(&SedaRequest::parse("TOPK 2 FOR (item, *) AND (qty, *)").expect("parses"))
        .expect("prepares");
    for k in [1usize, 4, 9, 2] {
        assert!(prepared.set_k(k));
        let fresh = reader
            .execute(&SedaRequest::parse(&format!("TOPK {k} FOR (item, *) AND (qty, *)")).unwrap())
            .expect("fresh execution");
        let reused = prepared.execute(&mut reader).expect("prepared execution");
        assert_eq!(normalized(reused.payload), normalized(fresh.payload), "k={k}");
    }
}

/// Interpreter-level governance parity: a breach surfaces as the same typed
/// error through the program as through the oracle.
#[test]
fn program_matches_oracle_under_budgets() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    let request = SedaRequest::parse("TOPK 10 FOR (name, *) AND (population, *)").expect("parses");
    let plan = engine.prepare(&request).expect("prepares");
    let budget = seda_core::Budget::unlimited().with_max_label_probes(1);
    let ctx = RequestContext::new(budget.clone());
    let mut reader = engine.reader();
    let optimized = reader.execute_plan_governed(&plan, &ctx);
    let ctx = RequestContext::new(budget);
    let oracle = reader.execute_plan_unoptimized(&plan, &ctx);
    match (&optimized, &oracle) {
        (Err(a), Err(b)) => {
            assert_eq!(a, b);
            assert!(matches!(a, SedaError::Limit { .. }), "{a}");
        }
        other => panic!("expected matching Limit errors, got {other:?}"),
    }
}
