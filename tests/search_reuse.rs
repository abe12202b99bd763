//! One search per `TOPK` / `CONNECTIONS` pair: the second statement of the
//! pair, sent over the same terms and `k` on one reader, takes the answer of
//! the search the first one just ran.  These tests hold the rule to a fresh
//! reader, which always searches, on the small corpora of
//! `tests/topk_equivalence.rs`:
//!
//! * the reused payload equals a fresh reader's, whole, cold and prepared;
//! * a repeated statement, another `k` or another selection searches again;
//! * a cold search never answers a prepared statement, nor the reverse;
//! * under any work ceiling and under an expired deadline the outcome is a
//!   fresh reader's;
//! * after a contained panic the next statement searches (with
//!   `--features failpoints`).
//!
//! A statement searched when its profile reports sorted accesses: every
//! query here has terms that meet, so every search reads some.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use seda_core::{
    Budget, EngineConfig, RequestContext, SedaEngine, SedaError, SedaRequest, SedaResponse,
};
use seda_datagen::Dataset;
use seda_olap::Registry;

/// The fault registry is process-global, so the fault test must not overlap
/// another test's searches: every test holds this guard.
fn serialise() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

fn engine(dataset: Dataset) -> SedaEngine {
    let collection = dataset.generate_small().expect("generate corpus");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

/// The explore queries of each small corpus: the two-term, three-term and
/// broad shapes of `tests/topk_equivalence.rs`.
fn explore_queries(dataset: Dataset) -> [&'static str; 3] {
    match dataset {
        Dataset::GoogleBase => [
            "(title, model) AND (price, *)",
            "(title, model) AND (price, *) AND (condition, new)",
            "(*, *) AND (price, *)",
        ],
        Dataset::Mondial => [
            "(name, *) AND (population, *)",
            "(/country/name, *) AND (population, *) AND (/sea/name, *)",
            "(*, *) AND (/sea/name, *)",
        ],
        Dataset::RecipeMl => [
            "(title, *) AND (item, *)",
            "(title, *) AND (item, *) AND (qty, *)",
            "(*, *) AND (title, *)",
        ],
        Dataset::WorldFactbook => [
            "(trade_country, *) AND (percentage, *)",
            r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#,
            "(*, *) AND (percentage, *)",
        ],
    }
}

fn request(text: &str) -> SedaRequest {
    SedaRequest::parse(text).expect("request parses")
}

/// True when the request ran a search of its own.
fn searched(response: &SedaResponse) -> bool {
    response.profile.sorted_accesses > 0
}

/// Asserts `reused` took the search of the statement before it: the payload
/// and the answer's flags are `fresh`'s, and no search work is counted.
fn assert_reused(reused: &SedaResponse, fresh: &SedaResponse, what: &str) {
    assert!(searched(fresh), "{what}: the fresh reader searched");
    assert_eq!(reused.payload, fresh.payload, "{what}");
    assert_eq!(reused.profile.rows, fresh.profile.rows, "{what}");
    let flags = |r: &SedaResponse| (r.profile.candidates_truncated, r.profile.early_terminated);
    assert_eq!(flags(reused), flags(fresh), "{what}");
    let work = &reused.profile;
    assert_eq!((work.sorted_accesses, work.random_accesses, work.tuples_scored), (0, 0, 0));
    assert!(!reused.profile.spans.iter().any(|span| span.name == "search"), "{what}");
    assert!(reused.profile.spans.iter().any(|span| span.name == "search-reused"), "{what}");
}

#[test]
fn the_second_statement_of_a_pair_answers_like_a_fresh_reader_cold_and_prepared() {
    let _guard = serialise();
    let k = 10;
    for dataset in Dataset::ALL {
        let engine = engine(dataset);
        for query in explore_queries(dataset) {
            let topk = request(&format!("TOPK {k} FOR {query}"));
            let connections = request(&format!("CONNECTIONS {k} FOR {query}"));
            let what = format!("{dataset:?}: {query}");
            let fresh_connections = engine.reader().execute(&connections).unwrap();
            let fresh_topk = engine.reader().execute(&topk).unwrap();

            // Cold: the explore round's order, and the reverse.
            let mut reader = engine.reader();
            reader.set_tracing(true);
            assert!(searched(&reader.execute(&topk).unwrap()), "{what}");
            let reused = reader.execute(&connections).unwrap();
            assert_reused(&reused, &fresh_connections, &format!("cold {what}"));
            assert!(searched(&reader.execute(&connections).unwrap()), "{what}");
            let reused = reader.execute(&topk).unwrap();
            assert_reused(&reused, &fresh_topk, &format!("cold reverse {what}"));

            // Prepared: both statements through their prepared statements,
            // held to a fresh reader's execution of each.
            let mut prepared_topk = reader.prepare(&topk).unwrap();
            let mut prepared_connections = reader.prepare(&connections).unwrap();
            let fresh_prepared = prepared_connections.execute(&mut engine.reader()).unwrap();
            assert_eq!(fresh_prepared.payload, fresh_connections.payload, "{what}");
            let mut reader = engine.reader();
            reader.set_tracing(true);
            assert!(searched(&prepared_topk.execute(&mut reader).unwrap()), "{what}");
            let reused = prepared_connections.execute(&mut reader).unwrap();
            assert_reused(&reused, &fresh_prepared, &format!("prepared {what}"));
        }
    }
}

/// Sends `first`, then `second`, on a fresh reader; true when `second`
/// searched.
fn second_searches(engine: &SedaEngine, first: &str, second: &str) -> bool {
    let mut reader = engine.reader();
    assert!(searched(&reader.execute(&request(first)).unwrap()), "{first}");
    searched(&reader.execute(&request(second)).unwrap())
}

#[test]
fn a_repeated_statement_another_k_or_another_selection_searches_again() {
    let _guard = serialise();
    let engine = engine(Dataset::WorldFactbook);
    let query = explore_queries(Dataset::WorldFactbook)[1];
    let topk = format!("TOPK 5 FOR {query}");
    let connections = format!("CONNECTIONS 5 FOR {query}");

    // The pair reuses in either order.
    assert!(!second_searches(&engine, &topk, &connections));
    assert!(!second_searches(&engine, &connections, &topk));
    // The same statement twice: the caller asked again.
    assert!(second_searches(&engine, &topk, &topk), "a repeated TOPK searches");
    assert!(second_searches(&engine, &connections, &connections), "so does a CONNECTIONS");
    // Other inputs: another k, another selection, other terms.
    assert!(second_searches(&engine, &topk, &format!("CONNECTIONS 4 FOR {query}")));
    let path = "/country/economy/import_partners/item/trade_country";
    assert!(second_searches(&engine, &topk, &format!("{connections} WITH 1 IN {path}")));
    let other = "CONNECTIONS 5 FOR (trade_country, *) AND (percentage, *)";
    assert!(second_searches(&engine, &topk, other));

    // An entry answers once: a third statement searches, whichever it is.
    for third in [&topk, &connections] {
        let mut reader = engine.reader();
        let mut run = |text: &str| searched(&reader.execute(&request(text)).unwrap());
        assert!(run(&topk));
        assert!(!run(&connections));
        assert!(run(third), "the entry was taken: {third}");
    }

    // A prepared statement executed twice searches twice.
    let mut reader = engine.reader();
    let mut prepared = reader.prepare(&request(&connections)).unwrap();
    assert!(searched(&prepared.execute(&mut reader).unwrap()));
    assert!(searched(&prepared.execute(&mut reader).unwrap()));
}

#[test]
fn cold_and_prepared_searches_never_answer_each_other() {
    let _guard = serialise();
    let engine = engine(Dataset::WorldFactbook);
    let query = explore_queries(Dataset::WorldFactbook)[1];
    let topk = request(&format!("TOPK 5 FOR {query}"));
    let connections = request(&format!("CONNECTIONS 5 FOR {query}"));
    let fresh = engine.reader().execute(&connections).unwrap();
    let mut reader = engine.reader();
    let mut prepared_topk = reader.prepare(&topk).unwrap();
    let mut prepared_connections = reader.prepare(&connections).unwrap();

    // A cold TOPK, then the prepared CONNECTIONS.
    assert!(searched(&reader.execute(&topk).unwrap()));
    let prepared = prepared_connections.execute(&mut reader).unwrap();
    assert!(searched(&prepared), "a cold search never answers a prepared statement");
    assert_eq!(prepared.payload, fresh.payload);

    // A prepared TOPK, then the cold CONNECTIONS, on another reader.
    let mut reader = engine.reader();
    assert!(searched(&prepared_topk.execute(&mut reader).unwrap()));
    let cold = reader.execute(&connections).unwrap();
    assert!(searched(&cold), "a prepared search never answers a cold request");
    assert_eq!(cold.payload, fresh.payload);
}

/// A comparable outcome: an error, or the payload with its `degraded` flag.
/// A deadline breach keeps only its resource: its numbers are wall times.
fn outcome(result: Result<SedaResponse, SedaError>) -> String {
    match result {
        Err(SedaError::Limit { resource: "deadline", .. }) => "error: deadline".to_string(),
        Err(err) => format!("error: {err:?}"),
        Ok(response) => format!("degraded={} {:?}", response.profile.degraded, response.payload),
    }
}

#[test]
fn work_ceilings_and_an_expired_deadline_give_a_fresh_readers_outcome() {
    let _guard = serialise();
    let engine = engine(Dataset::WorldFactbook);
    let query = explore_queries(Dataset::WorldFactbook)[1];
    let topk = request(&format!("TOPK 5 FOR {query}"));
    let connections = request(&format!("CONNECTIONS 5 FOR {query}"));
    let search = engine.reader().execute(&topk).unwrap().profile;
    let whole = engine.reader().execute(&connections).unwrap().profile;
    assert!(whole.label_probes > search.label_probes, "discovery probes the labels");

    // Each work ceiling below, at and above what the search spends; label
    // probes also between the search's and the whole request's.
    let (sorted, random, scored) =
        (search.sorted_accesses, search.random_accesses, search.tuples_scored);
    let (searched_probes, probes) = (search.label_probes, whole.label_probes);
    let mut budgets = Vec::new();
    for n in [sorted / 2, sorted, usize::MAX] {
        budgets.push(Budget::unlimited().with_max_sorted_accesses(n));
    }
    for n in [random / 2, random, usize::MAX] {
        budgets.push(Budget::unlimited().with_max_random_accesses(n));
    }
    for n in [scored / 2, scored, usize::MAX] {
        budgets.push(Budget::unlimited().with_max_candidates(n));
    }
    for n in [searched_probes / 2, searched_probes, (searched_probes + probes) / 2, u64::MAX] {
        budgets.push(Budget::unlimited().with_max_label_probes(n));
    }
    budgets.push(Budget::unlimited().with_deadline(Duration::ZERO));
    budgets.push(Budget::unlimited().with_deadline(Duration::ZERO).with_max_rows(2));

    let mut breached = 0;
    for budget in budgets {
        for degraded in [false, true] {
            let ctx = || {
                let ctx = RequestContext::new(budget.clone());
                if degraded {
                    ctx.allow_degraded()
                } else {
                    ctx
                }
            };
            let mut reader = engine.reader();
            assert!(searched(&reader.execute(&topk).unwrap()));
            let after_topk = outcome(reader.execute_governed(&connections, &ctx()));
            let fresh = outcome(engine.reader().execute_governed(&connections, &ctx()));
            assert_eq!(after_topk, fresh, "{budget:?}, degraded {degraded}");
            breached += usize::from(fresh.starts_with("error") || fresh.contains("degraded=true"));
        }
    }
    // In both modes the budgets below the search's spending breach (four),
    // so do the label probes at the search's and between it and the whole
    // request's (two: discovery crosses them) and both expired deadlines.
    assert_eq!(breached, 2 * (4 + 2 + 2), "the ceilings bite");
}

/// A contained panic clears the entry with the scratch: after one, the next
/// `CONNECTIONS` runs its search — whether the panic hit a search (a repeated
/// `TOPK` reaching `mid-search`) or the `CONNECTIONS` itself before it could
/// take the entry (at `plan`).
#[cfg(feature = "failpoints")]
#[test]
fn after_a_contained_panic_the_next_connections_searches() {
    use seda_core::faults::{arm, disarm_all, FaultAction};

    let _guard = serialise();
    let engine = engine(Dataset::WorldFactbook);
    let query = explore_queries(Dataset::WorldFactbook)[1];
    let topk = request(&format!("TOPK 5 FOR {query}"));
    let connections = request(&format!("CONNECTIONS 5 FOR {query}"));
    let fresh = engine.reader().execute(&connections).unwrap();
    let mut reader = engine.reader();

    assert!(searched(&reader.execute(&topk).unwrap()));
    arm("mid-search", FaultAction::Panic);
    let err = reader.execute(&topk).expect_err("the repeated TOPK reaches mid-search");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    let after = reader.execute(&connections).unwrap();
    assert!(searched(&after), "after a contained mid-search panic the search runs");
    assert_eq!(after.payload, fresh.payload);

    let mut reader = engine.reader();
    assert!(searched(&reader.execute(&topk).unwrap()));
    arm("plan", FaultAction::Panic);
    let err = reader.execute(&connections).expect_err("planning panics");
    assert!(matches!(err, SedaError::Internal(_)), "{err:?}");
    let after = reader.execute(&connections).unwrap();
    assert!(searched(&after), "after a contained planning panic the search runs");
    assert_eq!(after.payload, fresh.payload);
    disarm_all();
}

/// Reuse stays inside one reader: a second reader's `CONNECTIONS` searches.
#[test]
fn another_reader_never_takes_the_entry() {
    let _guard = serialise();
    let engine = engine(Dataset::Mondial);
    let query = explore_queries(Dataset::Mondial)[0];
    let mut first = engine.reader();
    assert!(searched(&first.execute(&request(&format!("TOPK 10 FOR {query}"))).unwrap()));
    let connections = request(&format!("CONNECTIONS 10 FOR {query}"));
    assert!(searched(&engine.reader().execute(&connections).unwrap()));
    assert!(!searched(&first.execute(&connections).unwrap()));
}
