//! Prepared-statement equivalence: a request executed through a prepared
//! statement — over its materialized term lists, round after round — must
//! return the payload a fresh execution of the same request returns (the
//! oracle here), across randomized datagen corpora and every statement type;
//! `set_k` must keep matching fresh plans; both spellings of the one executor
//! (facade, prepared statement) must reach the same outcome under each budget
//! ceiling; and a prepared statement runs only on the engine that planned it.
//!
//! The comparison is full structural equality of the `Result`, every counter
//! included.

use proptest::prelude::*;

use seda_core::{Budget, EngineConfig, RequestContext, SedaEngine, SedaError, SedaRequest};
use seda_datagen::{
    googlebase, mondial, recipeml, Dataset, GoogleBaseConfig, MondialConfig, RecipeMlConfig,
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

/// Asserts a prepared statement re-executed several times keeps reproducing
/// a fresh `execute` of the same request, or fails with the same typed error.
fn assert_prepared_matches_fresh(engine: &SedaEngine, text: &str) -> Result<(), TestCaseError> {
    let request = SedaRequest::parse(text).expect("request parses");
    let mut reader = engine.reader();
    let fresh = reader.execute(&request);
    let mut prepared = reader.prepare(&request).expect("request prepares");
    for round in 0..3 {
        let reused = prepared.execute(&mut reader);
        match (&fresh, &reused) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                &a.payload,
                &b.payload,
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
            assert_prepared_matches_fresh(&engine, &text)?;
        }
        // A restricted term filters postings inside sorted access.
        assert_prepared_matches_fresh(
            &engine,
            &format!("TOPK {k} FOR {q} WITH 0 IN /country/name"),
        )?;
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
            assert_prepared_matches_fresh(&engine, &text)?;
        }
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
            assert_prepared_matches_fresh(&engine, &text)?;
        }
    }
}

/// Non-random anchors: the exact fixed corpora of the bench suite, plus the
/// degenerate ks the strategies above rarely hit, for one term and two.
#[test]
fn program_matches_oracle_on_fixed_corpora_and_edge_ks() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    for k in [0, 1, 1000] {
        let text = format!("TOPK {k} FOR (name, *) AND (population, *)");
        assert_prepared_matches_fresh(&engine, &text).expect("equivalence");
        let text = format!("TOPK {k} FOR (name, *)");
        assert_prepared_matches_fresh(&engine, &text).expect("equivalence");
    }
}

/// `set_k` on a prepared statement keeps matching a freshly planned request
/// with the same k.
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
        assert_eq!(reused.payload, fresh.payload, "k={k}");
    }
}

/// A two-term search whose sorted accesses form at least eight pairs each
/// takes the pinned pair arm: its third prepared execution must spend exactly
/// the label probes of a fresh run, as it did on the first.
#[test]
fn a_pinned_pair_search_spends_the_same_label_probes_prepared_and_fresh() {
    let engine = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    let request = SedaRequest::parse("TOPK 10 FOR (name, *) AND (population, *)").expect("parses");
    let mut reader = engine.reader();
    let fresh = reader.execute(&request).expect("fresh execution");
    let top_k = fresh.top_k().expect("a top-k payload");
    // More pairs than sorted accesses: the batches are wide enough to pin.
    assert!(top_k.stats.tuples_scored >= 8 * top_k.stats.sorted_accesses, "{:?}", top_k.stats);
    assert!(top_k.stats.label_probes > 0);
    let mut prepared = reader.prepare(&request).expect("prepares");
    for _ in 0..2 {
        prepared.execute(&mut reader).expect("prepared execution");
    }
    let third = prepared.execute(&mut reader).expect("prepared execution");
    assert_eq!(third.profile.label_probes, fresh.profile.label_probes);
    assert_eq!(third.payload, fresh.payload);
}

/// A prepared statement carries the path and node ids of the engine that
/// planned it: a reader of another engine refuses it with a typed error
/// instead of answering from those ids, in both directions.
#[test]
fn a_plan_from_another_engine_is_refused() {
    let mondial = engine(Dataset::Mondial.generate_small().expect("mondial"), Registry::new());
    let googlebase =
        engine(Dataset::GoogleBase.generate_small().expect("googlebase"), googlebase_registry());
    let texts = [
        "TOPK 5 FOR (name, *) AND (population, *)",
        "RESULTS FOR (name, *) AND (population, *)",
        "TOPK 5 FOR (category, *) AND (price, *)",
        "CONTEXTS FOR (category, *)",
    ];
    for (home, away) in [(&mondial, &googlebase), (&googlebase, &mondial)] {
        let mut home_reader = home.reader();
        let mut away_reader = away.reader();
        for text in texts {
            let request = SedaRequest::parse(text).expect("parses");
            let mut prepared = home_reader.prepare(&request).expect("prepares at home");
            assert_eq!(prepared.execute(&mut away_reader).unwrap_err(), SedaError::ForeignPlan);
            assert_eq!(prepared.executions(), 0, "{text}");
            // At home it still runs.
            prepared.execute(&mut home_reader).expect("the statement runs at home");
        }
    }
}

/// Governance parity: under each budget ceiling, in error mode and in
/// `allow_degraded` mode, the two spellings of the one executor — the
/// facade and a prepared statement — reach the same
/// outcome: the same typed breach, or the same degraded prefix with the same
/// counters.
#[test]
fn program_matches_oracle_under_budgets() {
    let mondial = engine(
        mondial::generate(&MondialConfig::small()).expect("generate mondial"),
        Registry::new(),
    );
    let googlebase = engine(
        googlebase::generate(&GoogleBaseConfig::small()).expect("generate googlebase"),
        googlebase_registry(),
    );
    let q = "(category, *) AND (price, *)";
    let unlimited = Budget::unlimited;
    let cases: Vec<(&SedaEngine, String, Budget, &str)> = vec![
        (
            &mondial,
            "TOPK 10 FOR (name, *) AND (population, *)".to_string(),
            unlimited().with_max_label_probes(1),
            "label probes",
        ),
        (
            &mondial,
            "RESULTS FOR (name, *) AND (name, *) WITH 0 IN /country/name \
             WITH 1 IN /organization/name"
                .to_string(),
            unlimited().with_max_label_probes(1),
            "label probes",
        ),
        (
            &googlebase,
            "TWIG /item/category".to_string(),
            unlimited().with_max_rows(1),
            "result rows",
        ),
        (
            &googlebase,
            format!("CUBE price BY category AGG sum FOR {q}"),
            unlimited().with_max_rows(1),
            "result rows",
        ),
        (&googlebase, format!("RESULTS FOR {q}"), unlimited().with_max_rows(1), "result rows"),
        (
            &googlebase,
            format!("TOPK 10 FOR {q}"),
            unlimited().with_max_sorted_accesses(1),
            "sorted accesses",
        ),
        (
            &googlebase,
            "TOPK 10 FOR (price, *)".to_string(),
            unlimited().with_max_sorted_accesses(1),
            "sorted accesses",
        ),
    ];
    for (engine, text, budget, resource) in cases {
        let request = SedaRequest::parse(&text).expect("parses");
        let mut reader = engine.reader();
        let mut prepared = reader.prepare(&request).expect("prepares");
        for degraded in [false, true] {
            let ctx = || {
                let ctx = RequestContext::new(budget.clone());
                if degraded {
                    ctx.allow_degraded()
                } else {
                    ctx
                }
            };
            let outcomes = [
                reader.execute_governed(&request, &ctx()),
                prepared.execute_governed(&mut reader, &ctx()),
            ]
            .map(|outcome| {
                outcome.map(|r| {
                    let p = r.profile;
                    let counters =
                        (p.sorted_accesses, p.random_accesses, p.tuples_scored, p.label_probes);
                    (r.payload, p.degraded, p.rows, counters)
                })
            });
            assert_eq!(outcomes[1], outcomes[0], "{text} under {budget:?}, degraded={degraded}");
            match &outcomes[0] {
                Ok((_, flagged, ..)) => assert!(degraded && *flagged, "{text}: must breach"),
                Err(SedaError::Limit { resource: named, .. }) => {
                    assert!(!degraded, "{text}: degraded mode keeps the prefix");
                    assert_eq!(*named, resource, "{text}");
                }
                Err(other) => panic!("{text}: expected a Limit breach, got {other:?}"),
            }
        }
    }
}
