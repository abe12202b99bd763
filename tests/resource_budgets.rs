//! Resource-governed execution: every [`Budget`] ceiling must surface as a
//! typed [`SedaError::Limit`] naming the exhausted resource (or as a flagged
//! degraded prefix when the caller opts in), cancellation must surface as
//! [`SedaError::Cancelled`], and a breached request must leave the engine
//! fully serviceable.

use std::time::{Duration, Instant};

use seda_core::metrics::names;
use seda_core::{
    Budget, CancelToken, ContextSpec, EngineConfig, RequestContext, SedaEngine, SedaError,
    SedaRequest,
};
use seda_datagen::{factbook, googlebase, Dataset, FactbookConfig, GoogleBaseConfig};
use seda_datagraph::{DataGraph, GraphConfig};
use seda_olap::Registry;
use seda_textindex::{FullTextQuery, NodeIndex};
use seda_topk::{SearchLimits, SearchScratch, TermInput, TopKConfig, TopKSearcher};

fn engine() -> SedaEngine {
    let collection =
        factbook::generate(&FactbookConfig::paper_scaled(20, 3)).expect("generate factbook");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

fn topk_request() -> SedaRequest {
    SedaRequest::parse(
        r#"TOPK 5 FOR (*, "United States") AND (trade_country, *) AND (percentage, *)"#,
    )
    .expect("topk request parses")
}

fn results_request() -> SedaRequest {
    SedaRequest::parse(
        r#"RESULTS FOR (*, "United States") AND (trade_country, *) AND (percentage, *)
           WITH 0 IN /country/name
           WITH 1 IN /country/economy/import_partners/item/trade_country
           WITH 2 IN /country/economy/import_partners/item/percentage"#,
    )
    .expect("results request parses")
}

/// Each budget knob, driven to zero, must produce `SedaError::Limit` naming
/// exactly its resource — never a panic, never a silent clip.
#[test]
fn each_exhausted_budget_names_its_resource() {
    let engine = engine();
    let mut reader = engine.reader();
    let topk = topk_request();
    let results = results_request();
    let cases: Vec<(Budget, &SedaRequest, &str)> = vec![
        (Budget::unlimited().with_max_sorted_accesses(0), &topk, "sorted accesses"),
        (Budget::unlimited().with_max_random_accesses(0), &topk, "random accesses"),
        (Budget::unlimited().with_max_candidates(0), &topk, "candidate tuples"),
        (Budget::unlimited().with_max_label_probes(0), &topk, "label probes"),
        (Budget::unlimited().with_deadline(Duration::ZERO), &topk, "deadline"),
        (Budget::unlimited().with_max_rows(0), &topk, "result rows"),
        (Budget::unlimited().with_max_rows(1), &results, "result rows"),
    ];

    for (budget, request, resource) in cases {
        let ctx = RequestContext::new(budget.clone());
        let err = reader
            .execute_governed(request, &ctx)
            .expect_err(&format!("budget {budget:?} must breach"));
        match err {
            SedaError::Limit { resource: named, .. } => {
                assert_eq!(named, resource, "budget {budget:?} must name its resource")
            }
            other => panic!("budget {budget:?} must yield Limit, got {other:?}"),
        }
    }

    // After every breach the reader and engine still answer correctly.
    let response = reader.execute(&topk).expect("engine remains serviceable");
    assert!(!response.top_k().expect("top-k payload").tuples.is_empty());
}

/// `RESULTS` / `CUBE` spend label probes outside the searcher — in the
/// cross-root join and in the connection filter — and the request's ceiling
/// holds there as it does in `TOPK`: a typed breach naming the resource, or
/// with the opt-in a degraded answer whose rows are rows of the full one.
#[test]
fn a_label_probe_budget_stops_complete_results() {
    let mondial = SedaEngine::build(
        Dataset::Mondial.generate_small().expect("generate mondial"),
        Registry::new(),
        EngineConfig::default(),
    )
    .expect("engine build");
    let cross_root = SedaRequest::parse(
        "RESULTS FOR (name, *) AND (name, *) WITH 0 IN /country/name WITH 1 IN /organization/name",
    )
    .expect("results request parses");
    let factbook = engine();
    let mut filtered = results_request();
    let discovered = factbook
        .reader()
        .execute_text(r#"CONNECTIONS 10 FOR (trade_country, *) AND (percentage, *)"#)
        .expect("connections run");
    filtered.connections =
        discovered.connections().expect("connection payload").connections.clone();
    assert!(!filtered.connections.is_empty());

    for (engine, request, joins_across_roots) in
        [(&mondial, &cross_root, true), (&factbook, &filtered, false)]
    {
        let mut reader = engine.reader();
        let full = reader.execute(request).expect("ungoverned run");
        let full_rows = &full.table().expect("table payload").rows;
        assert!(!full_rows.is_empty() && full.profile.label_probes > 1, "{:?}", full.profile);

        let budget = || Budget::unlimited().with_max_label_probes(1);
        let err = reader
            .execute_governed(request, &RequestContext::new(budget()))
            .expect_err("the label-probe ceiling must breach");
        assert!(
            matches!(err, SedaError::Limit { resource: "label probes", budget: 1, .. }),
            "{err:?}"
        );

        let ctx = RequestContext::new(budget()).allow_degraded();
        let degraded = reader.execute_governed(request, &ctx).expect("degraded run");
        assert!(degraded.profile.degraded);
        let rows = &degraded.table().expect("table payload").rows;
        assert!(rows.iter().all(|row| full_rows.contains(row)), "not a subset");
        assert!(degraded.profile.label_probes <= full.profile.label_probes);
        if joins_across_roots {
            // Checked per source row: the join stopped after its first one.
            assert!(rows.len() < full_rows.len(), "{} of {}", rows.len(), full_rows.len());
        }
    }
}

#[test]
fn twig_and_cube_budgets_cap_their_shapes() {
    let engine = engine();
    let mut reader = engine.reader();
    let twig = SedaRequest::parse("TWIG /country/economy/import_partners/item/trade_country")
        .expect("twig request parses");
    let full = reader.execute(&twig).expect("ungoverned twig");
    let full_rows = full.table().expect("table payload").len();
    assert!(full_rows > 1, "workload must produce enough twig matches to cap");

    let ctx = RequestContext::new(Budget::unlimited().with_max_twig_matches(1));
    let err = reader.execute_governed(&twig, &ctx).expect_err("twig ceiling must breach");
    assert!(
        matches!(err, SedaError::Limit { resource: "twig matches", spent, budget: 1 } if spent == full_rows),
        "{err:?}"
    );

    // Degraded opt-in keeps the prefix instead.
    let ctx = RequestContext::new(Budget::unlimited().with_max_twig_matches(1)).allow_degraded();
    let degraded = reader.execute_governed(&twig, &ctx).expect("degraded twig");
    assert!(degraded.profile.degraded);
    assert_eq!(degraded.table().expect("table payload").len(), 1);
    assert_eq!(degraded.table().unwrap().rows[0], full.table().unwrap().rows[0]);

    let cube = SedaRequest::parse(
        r#"CUBE import-trade-percentage BY import-country AGG sum
           FOR (*, "United States") AND (trade_country, *) AND (percentage, *)
           WITH 0 IN /country/name
           WITH 1 IN /country/economy/import_partners/item/trade_country
           WITH 2 IN /country/economy/import_partners/item/percentage"#,
    )
    .expect("cube request parses");
    let full_cells = reader.execute(&cube).expect("ungoverned cube").cube().unwrap().len();
    assert!(full_cells > 1, "workload must produce enough cube cells to cap");
    let ctx = RequestContext::new(Budget::unlimited().with_max_cube_cells(1));
    let err = reader.execute_governed(&cube, &ctx).expect_err("cube ceiling must breach");
    assert!(matches!(err, SedaError::Limit { resource: "cube cells", budget: 1, .. }), "{err:?}");
    let ctx = RequestContext::new(Budget::unlimited().with_max_cube_cells(1)).allow_degraded();
    let degraded = reader.execute_governed(&cube, &ctx).expect("degraded cube");
    assert!(degraded.profile.degraded);
    assert_eq!(degraded.cube().expect("cube payload").len(), 1);
}

#[test]
fn degraded_topk_is_a_prefix_of_the_full_answer() {
    let engine = engine();
    let mut reader = engine.reader();
    let request = topk_request();
    let full = reader.execute(&request).expect("ungoverned run");
    let full_tuples = &full.top_k().expect("top-k payload").tuples;

    // Enough random accesses to enumerate a few combinations, not all.
    let ctx = RequestContext::new(Budget::unlimited().with_max_random_accesses(4)).allow_degraded();
    let degraded = reader.execute_governed(&request, &ctx).expect("degraded run");
    assert!(degraded.profile.degraded, "breach with degraded opt-in must flag the profile");
    let tuples = &degraded.top_k().expect("top-k payload").tuples;
    assert!(tuples.len() <= full_tuples.len());
    for (got, want) in tuples.iter().zip(full_tuples) {
        assert_eq!(got.nodes, want.nodes, "degraded prefix must match the full ranking");
    }
    assert!(degraded.profile.budget_spent > 0);
}

#[test]
fn generous_budgets_change_nothing() {
    let engine = engine();
    let mut reader = engine.reader();
    let request = topk_request();
    let ungoverned = reader.execute(&request).expect("ungoverned run");
    let generous = Budget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_max_sorted_accesses(usize::MAX)
        .with_max_random_accesses(usize::MAX)
        .with_max_candidates(usize::MAX)
        .with_max_label_probes(u64::MAX)
        .with_max_rows(usize::MAX)
        .with_max_twig_matches(usize::MAX)
        .with_max_cube_cells(usize::MAX);
    let ctx = RequestContext::new(generous).with_cancel_token(CancelToken::new());
    let governed = reader.execute_governed(&request, &ctx).expect("governed run");
    assert!(!governed.profile.degraded);
    assert_eq!(governed.payload, ungoverned.payload, "generous ceilings must not change answers");
    assert!(governed.profile.budget_spent > 0);
}

/// The join reads the clock before sorted access 0 and every
/// [`SearchLimits::DEADLINE_STRIDE`]th after, not once per access.  An
/// expired deadline still breaches before the first access (the zero deadline
/// of `each_exhausted_budget_names_its_resource`); one that expires
/// mid-search is noticed at the next multiple of the stride.
#[test]
fn a_deadline_expiring_mid_search_breaches_on_a_stride_boundary() {
    let config = GoogleBaseConfig { items: 600, ..GoogleBaseConfig::small() };
    let collection = googlebase::generate(&config).expect("generate googlebase");
    let index = NodeIndex::build(&collection);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    let searcher = TopKSearcher::new(&index, &graph);
    let any_under = |tag: &str| {
        let paths = ContextSpec::Tag(tag.to_string()).allowed_paths(&collection);
        TermInput::with_paths(FullTextQuery::Any, paths.expect("a tag restricts"))
    };
    let terms = [any_under("title"), any_under("price")];
    let k = TopKConfig::with_k(10);
    let mut scratch = SearchScratch::new();
    let mut search = |limits: &SearchLimits| searcher.search(&terms, &k, limits, &mut scratch);

    let start = Instant::now();
    let (full, breach) = search(&SearchLimits::unlimited());
    let whole = start.elapsed();
    assert!(breach.is_none());
    assert!(full.stats.sorted_accesses > 8 * SearchLimits::DEADLINE_STRIDE, "{:?}", full.stats);

    // Half the search's own time puts the deadline well inside the join; a
    // run the host disturbed (expired before the join, or never) is repeated.
    for _ in 0..20 {
        let deadline = Some(Instant::now() + whole / 2);
        let (partial, breach) = search(&SearchLimits { deadline, ..SearchLimits::unlimited() });
        let accesses = partial.stats.sorted_accesses;
        if breach.is_none() || accesses == 0 {
            continue;
        }
        assert_eq!(breach.expect("checked above").resource, "deadline");
        assert_eq!(accesses % SearchLimits::DEADLINE_STRIDE, 0, "breached after {accesses}");
        assert!(accesses < full.stats.sorted_accesses);
        return;
    }
    panic!("no deadline of {:?} caught the search between its first and last access", whole / 2);
}

#[test]
fn cancellation_surfaces_as_cancelled() {
    let engine = engine();
    let mut reader = engine.reader();
    let token = CancelToken::new();
    token.cancel();
    let ctx = RequestContext::unlimited().with_cancel_token(token);
    let err = reader.execute_governed(&topk_request(), &ctx).expect_err("cancelled request");
    assert_eq!(err, SedaError::Cancelled);
    // The same reader still serves uncancelled requests.
    assert!(reader.execute(&topk_request()).is_ok());
}

/// `TWIG` and same-root `RESULTS` / `CUBE` spend their time inside one twig
/// evaluation, which reads the request's context before document 0 and every
/// [`SearchLimits::DEADLINE_STRIDE`]th after: a deadline that runs out on the
/// way ends it there with the rows of the documents visited — a prefix of the
/// full answer.  (The stride and a cancellation landing mid-evaluation are
/// pinned without a clock race by `seda-core`'s engine tests.)
#[test]
fn a_deadline_stops_a_twig_evaluation_between_documents() {
    let collection = Dataset::RecipeMl.generate_scaled(0.1).expect("generate recipeml");
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .expect("engine build");
    let mut reader = engine.reader();
    for text in ["TWIG /recipeml/recipe//item", "RESULTS FOR (title, *) AND (item, *)"] {
        let request = SedaRequest::parse(text).expect("request parses");
        let mut timed = || {
            let start = Instant::now();
            let response = reader.execute(&request).expect("ungoverned run");
            (start.elapsed(), response)
        };
        let (whole, full) = (0..3).map(|_| timed()).min_by_key(|(time, _)| *time).expect("3 runs");
        let full_rows = &full.table().expect("table payload").rows;
        assert!(full_rows.len() > 1_000, "{text}: {} rows", full_rows.len());

        // An unlimited context changes nothing.
        let unlimited =
            reader.execute_governed(&request, &RequestContext::unlimited()).expect("unlimited run");
        assert_eq!(unlimited.payload, full.payload, "{text}");
        assert!(!unlimited.profile.degraded);

        // Half the statement's own time puts the deadline inside the
        // evaluation; a run the host disturbed (the deadline fell after the
        // last document, or the run beat it) is repeated.
        let half = || Budget::unlimited().with_deadline(whole / 2);
        let mut stopped_inside = false;
        for _ in 0..20 {
            let ctx = RequestContext::new(half()).allow_degraded();
            let degraded = reader.execute_governed(&request, &ctx).expect("degraded run");
            let rows = &degraded.table().expect("table payload").rows;
            assert_eq!(rows[..], full_rows[..rows.len()], "{text}: not a prefix");
            // (A complete answer may be flagged too: it arrived late.)
            assert!(degraded.profile.degraded || rows.len() == full_rows.len(), "{text}");
            if degraded.profile.degraded && !rows.is_empty() && rows.len() < full_rows.len() {
                stopped_inside = true;
                break;
            }
        }
        assert!(
            stopped_inside,
            "{text}: no deadline of {:?} fell inside the evaluation",
            whole / 2
        );

        // Without the opt-in the same breach is the typed error.
        let strict = (0..20)
            .find_map(|_| reader.execute_governed(&request, &RequestContext::new(half())).err());
        assert!(
            matches!(strict, Some(SedaError::Limit { resource: "deadline", .. })),
            "{text}: {strict:?}"
        );

        // A cancelled request errors.
        let token = CancelToken::new();
        token.cancel();
        let ctx = RequestContext::unlimited().with_cancel_token(token);
        assert_eq!(reader.execute_governed(&request, &ctx).err(), Some(SedaError::Cancelled));
        // The reader still serves.
        assert_eq!(reader.execute(&request).expect("ungoverned run").payload, full.payload);
    }
}

/// Every executed request is recorded in the engine's metrics exactly once,
/// whichever door it came through: a prepared statement, a direct plan
/// execution, or the facade (which must not double-count).
#[test]
fn prepared_and_planned_executions_are_recorded_exactly_once() {
    let engine = engine();
    let mut reader = engine.reader();
    let metrics = engine.metrics();
    let requests = || metrics.counter(names::REQUESTS_TOTAL, "TOPK").get();
    let latencies = || metrics.histogram(names::REQUEST_LATENCY_SECONDS, "TOPK").count();
    let breaches = || metrics.counter(names::BUDGET_BREACHES_TOTAL, "").get();

    let mut prepared = reader.prepare(&topk_request()).expect("request prepares");
    let (requests_before, latencies_before, breaches_before) =
        (requests(), latencies(), breaches());
    let n = 4;
    for _ in 0..n {
        prepared.execute(&mut reader).expect("prepared execution");
    }
    assert_eq!(requests(), requests_before + n, "each prepared execution is one request");
    assert_eq!(latencies(), latencies_before + n, "each one observes its latency");
    assert_eq!(breaches(), breaches_before);

    let tight = RequestContext::new(Budget::unlimited().with_max_sorted_accesses(0));
    let err = prepared.execute_governed(&mut reader, &tight).expect_err("budget must breach");
    assert!(matches!(err, SedaError::Limit { .. }), "{err:?}");
    assert_eq!(breaches(), breaches_before + 1, "a breached prepared execution is counted");
    assert_eq!(requests(), requests_before + n + 1);
    assert_eq!(latencies(), latencies_before + n, "failed requests observe no latency");

    let plan = engine.prepare(&topk_request()).expect("request plans");
    reader.execute_plan_governed(&plan, &RequestContext::unlimited()).expect("plan executes");
    assert_eq!(requests(), requests_before + n + 2, "direct plan execution is one request");
    reader.execute(&topk_request()).expect("facade executes");
    assert_eq!(requests(), requests_before + n + 3, "the facade path must not double-count");
    assert_eq!(latencies(), latencies_before + n + 2);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Tiny budgets never panic: execution returns either a typed Limit
        /// breach from the budget catalog or a (possibly complete) answer,
        /// and the degraded-opt-in variant of the same budget never errors
        /// on a pure budget breach.
        #[test]
        fn tiny_budgets_yield_typed_limits_or_answers(
            sorted in 0usize..3,
            random in 0usize..3,
            candidates in 0usize..3,
            probes in 0u64..3,
            rows in 0usize..3,
        ) {
            let engine = engine();
            let mut reader = engine.reader();
            let budget = Budget::unlimited()
                .with_max_sorted_accesses(sorted)
                .with_max_random_accesses(random)
                .with_max_candidates(candidates)
                .with_max_label_probes(probes)
                .with_max_rows(rows);
            let request = topk_request();
            let strict = RequestContext::new(budget.clone());
            match reader.execute_governed(&request, &strict) {
                Ok(response) => prop_assert!(!response.profile.degraded),
                Err(SedaError::Limit { resource, .. }) => prop_assert!(
                    [
                        "sorted accesses",
                        "random accesses",
                        "candidate tuples",
                        "label probes",
                        "result rows",
                    ]
                    .contains(&resource),
                    "unexpected resource {resource:?}"
                ),
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
            let degraded = RequestContext::new(budget).allow_degraded();
            let response = reader.execute_governed(&request, &degraded);
            prop_assert!(response.is_ok(), "degraded budgets never error: {response:?}");
            prop_assert!(response.unwrap().profile.rows <= rows.max(5));
        }
    }
}
