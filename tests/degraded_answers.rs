//! Degraded answers relate to full answers as documented, across statements.
//!
//! A request that opts into degraded answers and breaches a budget gets the
//! part of the answer computed before the breach.  What part is documented
//! per statement (`SedaEngine::complete_results_governed`, the reader's
//! `TWIG` step): a `TWIG` stopped by its deadline or its row ceiling,
//! and a same-root `RESULTS` of one context combination stopped by its
//! deadline or clipped to its row ceiling, return a **prefix** of the full
//! answer; a `RESULTS` over several combinations, or one joined across
//! document roots, a **subset** of it.  Each relation is checked here from
//! request text, budget by budget, on the corpus shapes of the benchmark's
//! analyze rounds: Factbook, RecipeML and (for the cross-root join) Mondial.
//! Every profile, full or degraded, must pass `verify_exec_profile`.

use std::time::{Duration, Instant};

use seda_core::{
    verify_exec_profile, Budget, EngineConfig, RequestContext, SedaEngine, SedaRequest,
    SedaResponse,
};
use seda_datagen::{names, Dataset};
use seda_olap::Registry;
use seda_xmlstore::NodeId;

const IMPORT_COUNTRY: &str = "/country/economy/import_partners/item/trade_country";
const IMPORT_PERCENTAGE: &str = "/country/economy/import_partners/item/percentage";

/// How a degraded answer relates to the full one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Relation {
    Prefix,
    Subset,
}

fn engine(dataset: Dataset) -> SedaEngine {
    let collection = dataset.generate_scaled(0.05).expect("datagen");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

fn rows(response: &SedaResponse) -> Vec<Vec<NodeId>> {
    let table = response.table().expect("a table payload");
    table.rows().map(<[_]>::to_vec).collect()
}

/// Budgets that cut the statement short, or may: row ceilings from none to
/// all but one of the full answer's rows, label-probe
/// ceilings below what the full answer spent, and deadlines from zero to the
/// whole statement's time (a deadline may also fall after the last row; the
/// relation holds either way).
fn budgets(full_rows: usize, probes: u64, whole: Duration) -> Vec<Budget> {
    let ceilings = [
        0,
        1,
        7,
        full_rows / 4,
        full_rows / 3,
        full_rows / 2,
        2 * full_rows / 3,
        full_rows.saturating_sub(1),
    ];
    let mut budgets: Vec<Budget> =
        ceilings.into_iter().map(|ceiling| Budget::unlimited().with_max_rows(ceiling)).collect();
    for probes in [1, probes / 2, probes.saturating_sub(1)] {
        budgets.push(Budget::unlimited().with_max_label_probes(probes));
    }
    for deadline in [Duration::ZERO, whole / 4, whole / 2, whole] {
        budgets.push(Budget::unlimited().with_deadline(deadline));
    }
    budgets
}

/// Runs `text` in full, then under every budget of [`budgets`] with degraded
/// answers allowed, and checks each answer against the full one; returns how
/// many budgets cut the answer short.
fn assert_degraded_answers(engine: &SedaEngine, text: &str, relation: Relation) -> usize {
    let request = SedaRequest::parse(text).expect("request parses");
    let mut reader = engine.reader();
    let start = Instant::now();
    let full = reader.execute(&request).expect("ungoverned run");
    let whole = start.elapsed();
    verify_exec_profile(&full.profile).unwrap_or_else(|v| panic!("{text}: {v:?}"));
    let full_rows = rows(&full);
    assert!(full_rows.len() > 10, "{text}: only {} rows", full_rows.len());

    let mut cut_short = 0;
    for budget in budgets(full_rows.len(), full.profile.label_probes, whole) {
        let ctx = RequestContext::new(budget.clone()).allow_degraded();
        let response = reader.execute_governed(&request, &ctx).expect("degraded runs answer");
        verify_exec_profile(&response.profile)
            .unwrap_or_else(|v| panic!("{text} under {budget:?}: {v:?}"));
        let got = rows(&response);
        if !response.profile.degraded {
            assert_eq!(got, full_rows, "{text} under {budget:?}: not degraded, not whole");
            continue;
        }
        match relation {
            Relation::Prefix => {
                assert!(got.len() <= full_rows.len(), "{text} under {budget:?}");
                assert_eq!(
                    got[..],
                    full_rows[..got.len()],
                    "{text} under {budget:?}: not a prefix"
                );
            }
            Relation::Subset => {
                let missing = got.iter().find(|row| !full_rows.contains(row));
                assert_eq!(missing, None, "{text} under {budget:?}: not a subset");
                let mut deduplicated = got.clone();
                deduplicated.dedup();
                assert_eq!(deduplicated.len(), got.len(), "{text} under {budget:?}: duplicates");
            }
        }
        if let Some(max) = budget.max_rows {
            assert!(got.len() <= max, "{text} under {budget:?}: {} rows", got.len());
        }
        cut_short += usize::from(got.len() < full_rows.len());
    }
    cut_short
}

/// The number of context combinations the plan of `text` enumerates.
fn combinations(engine: &SedaEngine, text: &str) -> usize {
    let explained = engine.reader().execute_text(&format!("EXPLAIN {text}"));
    let explained = explained.expect("request plans");
    let transcript = explained.explain_transcript().expect("a plan transcript");
    let step = transcript.lines().find_map(|line| line.trim().split_once(". enumerate "));
    let count = step.and_then(|(_, rest)| rest.split(' ').next()?.parse().ok());
    count.unwrap_or_else(|| panic!("{text}: no enumeration step in {transcript}"))
}

#[test]
fn a_degraded_twig_is_a_prefix_of_the_full_answer() {
    for (dataset, text) in [
        (Dataset::WorldFactbook, "TWIG /country/economy//trade_country"),
        (Dataset::RecipeMl, "TWIG /recipeml/recipe//item"),
    ] {
        let engine = engine(dataset);
        let cut_short = assert_degraded_answers(&engine, text, Relation::Prefix);
        assert!(cut_short >= 8, "{text}: only {cut_short} budgets cut the answer short");
    }
}

#[test]
fn a_degraded_same_root_results_of_one_combination_is_a_prefix() {
    let factbook = engine(Dataset::WorldFactbook);
    let recipeml = engine(Dataset::RecipeMl);
    let statements = [
        (
            &factbook,
            format!(
                "RESULTS FOR (trade_country, *) AND (percentage, *) \
                 WITH 0 IN {IMPORT_COUNTRY} WITH 1 IN {IMPORT_PERCENTAGE}"
            ),
        ),
        (
            &factbook,
            format!(
                "RESULTS FOR (year, *) AND (percentage, *) AND (name, *) \
                 WITH 0 IN /country/year WITH 1 IN {IMPORT_PERCENTAGE} WITH 2 IN /country/name"
            ),
        ),
        (&recipeml, "RESULTS FOR (title, *) AND (item, *)".to_string()),
        (&recipeml, format!("RESULTS FOR (item, \"{}\") AND (qty, *)", names::INGREDIENTS[0])),
    ];
    for (engine, text) in statements {
        assert_eq!(combinations(engine, &text), 1, "{text}");
        let cut_short = assert_degraded_answers(engine, &text, Relation::Prefix);
        assert!(cut_short >= 5, "{text}: only {cut_short} budgets cut the answer short");
    }
}

#[test]
fn a_degraded_multi_combination_or_cross_root_results_is_a_subset() {
    let factbook = engine(Dataset::WorldFactbook);
    let mondial = engine(Dataset::Mondial);
    let multi = "RESULTS FOR (trade_country, *) AND (percentage, *)";
    assert!(combinations(&factbook, multi) > 1, "{multi}");
    let cross_root = "RESULTS FOR (name, *) AND (name, *) \
                      WITH 0 IN /country/name WITH 1 IN /organization/name";
    for (engine, text) in [(&factbook, multi), (&mondial, cross_root)] {
        let cut_short = assert_degraded_answers(engine, text, Relation::Subset);
        assert!(cut_short >= 5, "{text}: only {cut_short} budgets cut the answer short");
    }
}
