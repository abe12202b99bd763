//! Reader-handle concurrency: N threads holding N `SedaReader`s over one
//! shared engine must produce byte-identical results to sequential execution
//! through a single reader (the engine holds no query-time mutable state
//! besides its atomic metrics, so there is nothing to contend on).

use seda_core::{EngineConfig, SedaEngine, SedaRequest, SedaResponse};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::Registry;

fn engine() -> SedaEngine {
    let collection =
        factbook::generate(&FactbookConfig::paper_scaled(20, 3)).expect("generate factbook");
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

fn workload() -> Vec<SedaRequest> {
    let query = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;
    let refinements = "WITH 0 IN /country/name \
                       WITH 1 IN /country/economy/import_partners/item/trade_country \
                       WITH 2 IN /country/economy/import_partners/item/percentage";
    let texts = [
        format!("TOPK 5 FOR {query}"),
        "TOPK 1 FOR (trade_country, *)".to_string(),
        format!("CONTEXTS FOR {query}"),
        format!("CONNECTIONS 5 FOR {query}"),
        format!("RESULTS FOR {query} {refinements}"),
        "TWIG /country/economy/import_partners/item/trade_country".to_string(),
        format!("CUBE import-trade-percentage BY import-country AGG sum FOR {query} {refinements}"),
        format!("EXPLAIN TOPK 5 FOR {query}"),
    ];
    texts.iter().map(|t| SedaRequest::parse(t).expect("workload request parses")).collect()
}

/// Renders the deterministic parts of a response (everything except wall
/// times) so runs can be compared byte-for-byte.
fn fingerprint(response: &SedaResponse) -> String {
    format!(
        "{:?}|rows={}|sorted={}|random={}|scored={}|probes={}",
        response.payload,
        response.profile.rows,
        response.profile.sorted_accesses,
        response.profile.random_accesses,
        response.profile.tuples_scored,
        response.profile.label_probes,
    )
}

#[test]
fn concurrent_readers_match_sequential_byte_for_byte() {
    let engine = engine();
    let requests = workload();

    // Sequential baseline: one reader executes the whole workload.
    let mut reader = engine.reader();
    let baseline: Vec<String> = requests
        .iter()
        .map(|r| fingerprint(&reader.execute(r).expect("sequential execution")))
        .collect();

    // N threads, each with its own reader, each running the full workload.
    let n_threads = 4;
    let per_thread: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut reader = engine.reader();
                    requests
                        .iter()
                        .map(|r| fingerprint(&reader.execute(r).expect("concurrent execution")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });

    for (t, results) in per_thread.iter().enumerate() {
        assert_eq!(
            results, &baseline,
            "thread {t} must produce byte-identical results to sequential execution"
        );
    }
}

#[test]
fn execute_batch_fans_out_without_touching_the_engine_mutex() {
    let engine = engine();
    let requests = workload();
    let mut reader = engine.reader();
    let baseline: Vec<String> = requests
        .iter()
        .map(|r| fingerprint(&reader.execute(r).expect("sequential execution")))
        .collect();

    for parallelism in [1, 4] {
        let batched = engine.execute_batch(&requests, parallelism);
        let fingerprints: Vec<String> =
            batched.iter().map(|r| fingerprint(r.as_ref().expect("batch response"))).collect();
        assert_eq!(fingerprints, baseline, "parallelism={parallelism}");
    }
}

#[test]
fn repeated_reader_queries_reuse_scratch_deterministically() {
    let engine = engine();
    let mut reader = engine.reader();
    let request = SedaRequest::parse(
        r#"TOPK 10 FOR (*, "United States") AND (trade_country, *) AND (percentage, *)"#,
    )
    .unwrap();
    let first = fingerprint(&reader.execute(&request).unwrap());
    for _ in 0..5 {
        assert_eq!(
            fingerprint(&reader.execute(&request).unwrap()),
            first,
            "scratch reuse must not change answers"
        );
    }
}
