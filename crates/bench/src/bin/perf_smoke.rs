//! CI perf smoke check: the ten gates of [`seda_bench`], measured on this
//! machine against this build — no argument, no file, no environment variable.
//!
//! ```text
//! cargo run --release -p seda-bench --bin perf_smoke
//! ```
//!
//! Prints the nine measured ratios with their bounds, and the one count, and
//! exits non-zero when any gate fails.  Absolute latencies are
//! `benchmark/run.sh`'s business.

use std::hint::black_box;
use std::process::ExitCode;

use seda_bench::{
    cold_fill_verdict, cube_statement_verdict, generous_context, googlebase_engine,
    governance_verdict, index_build_verdict, index_bytes_verdict, interleaved_minima,
    join_scaling_verdict, mondial_engine, one_search_per_round_verdict, pinned_pairs_verdict,
    prepared_over_cold_verdict, term_inputs, twig_scan_verdict, twig_statement_verdict, BASE_ITEMS,
    BROAD_TOPK, CUBE_CLAUSE, PAIR_QUERY, SCALED_ITEMS, SELECTIVE_QUERY, SELECTIVE_TOPK, TWIG_PATH,
};
use seda_core::{EngineConfig, RequestContext, SedaEngine, SedaReader, SedaRequest, SedaResponse};
use seda_datagen::Dataset;
use seda_olap::Registry;
use seda_textindex::{terms, ContextIndex, CountStorage, NodeIndex, ReadModelBytes};
use seda_topk::{SearchLimits, SearchScratch, TopKSearcher};
use seda_twigjoin::{evaluate_twig, TwigPattern};

/// Measures the ten gates and prints each verdict; `Ok(false)` when any failed.
fn run() -> Result<bool, String> {
    let request = SedaRequest::parse(BROAD_TOPK).map_err(|e| e.to_string())?;
    let base_engine = googlebase_engine(BASE_ITEMS)?;
    let scaled_engine = googlebase_engine(SCALED_ITEMS)?;
    let (mut base, mut scaled) = (base_engine.reader(), scaled_engine.reader());
    let unlimited = RequestContext::unlimited();
    let ungoverned = |reader: &mut SedaReader<'_>| {
        reader.execute_governed(&request, &unlimited).expect("broad TOPK executes");
    };

    let (base_ms, scaled_ms) =
        interleaved_minima(|| ungoverned(&mut base), || ungoverned(&mut scaled));
    let scaling = report(join_scaling_verdict(base_ms, scaled_ms));

    let mut governed_reader = scaled_engine.reader();
    let mut degraded = false;
    let (ungoverned_ms, governed_ms) = interleaved_minima(
        || ungoverned(&mut scaled),
        || {
            let response = governed_reader
                .execute_governed(&request, &generous_context())
                .expect("generous budget never breaches");
            degraded |= response.profile.degraded;
        },
    );
    if degraded {
        return Err("a generous budget degraded the response".to_string());
    }
    let governance = report(governance_verdict(ungoverned_ms, governed_ms));

    let selective = SedaRequest::parse(SELECTIVE_TOPK).map_err(|e| e.to_string())?;
    let mut statement = scaled.prepare(&selective).map_err(|e| e.to_string())?;
    let mut prepared_reader = scaled_engine.reader();
    let mut sorted_accesses = 0;
    let (prepared_ms, cold_ms) = interleaved_minima(
        || drop(statement.execute(&mut prepared_reader).expect("prepared selective TOPK")),
        || {
            let response =
                scaled.execute_governed(&selective, &unlimited).expect("cold selective TOPK");
            sorted_accesses = response.profile.sorted_accesses;
        },
    );
    let cold_fill = report(cold_fill_verdict(prepared_ms, (cold_ms, sorted_accesses)));
    let one_search = report(one_search_per_round(&scaled_engine)?);
    let mondial = mondial_engine()?;
    let pinned_pairs = report(pinned_pairs(&mondial)?);
    let prepared_over_cold = report(prepared_over_cold(&mondial)?);
    drop(mondial);
    let recipeml = Dataset::RecipeMl.generate_scaled(1.0).map_err(|e| e.to_string())?;
    let recipeml =
        SedaEngine::build(recipeml, Registry::factbook_defaults(), EngineConfig::default())
            .map_err(|e| e.to_string())?;
    let twig_scan = report(twig_scan(&recipeml)?);
    let twig_statement = report(twig_statement(&recipeml)?);
    drop(recipeml);
    let index_build = report(index_build()?);
    let cube_statement = report(cube_statement()?);
    Ok(scaling
        && governance
        && cold_fill
        && one_search
        && pinned_pairs
        && prepared_over_cold
        && twig_scan
        && twig_statement
        && index_build
        && cube_statement)
}

/// The one-search-per-round gate: the explore round over [`SELECTIVE_QUERY`]
/// — `TOPK 10`, `CONTEXTS`, `CONNECTIONS 10` — through one reader of `engine`,
/// its sorted accesses summed, against one `TOPK 10` through a fresh reader.
fn one_search_per_round(engine: &SedaEngine) -> Result<Result<String, String>, String> {
    let sorted = |reader: &mut SedaReader<'_>, text: &str| {
        reader.execute_text(text).map(|r| r.profile.sorted_accesses).map_err(|e| e.to_string())
    };
    let topk = format!("TOPK 10 FOR {SELECTIVE_QUERY}");
    let round = [
        topk.clone(),
        format!("CONTEXTS FOR {SELECTIVE_QUERY}"),
        format!("CONNECTIONS 10 FOR {SELECTIVE_QUERY}"),
    ];
    let mut reader = engine.reader();
    let mut round_sorted = 0;
    for text in &round {
        round_sorted += sorted(&mut reader, text)?;
    }
    let topk_sorted = sorted(&mut engine.reader(), &topk)?;
    Ok(one_search_per_round_verdict(topk_sorted, round_sorted))
}

/// The cube-statement gate: the `CUBE` and the `RESULTS` statement over
/// [`CUBE_CLAUSE`] on the paper-scale Factbook collection, each from its text
/// through its own reader; the cube must aggregate every row the results hold.
fn cube_statement() -> Result<Result<String, String>, String> {
    let collection = Dataset::WorldFactbook.generate_paper_scale().map_err(|e| e.to_string())?;
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .map_err(|e| e.to_string())?;
    let results = format!("RESULTS {CUBE_CLAUSE}");
    let cube = format!("CUBE import-trade-percentage BY import-country AGG sum {CUBE_CLAUSE}");
    let (mut results_reader, mut cube_reader) = (engine.reader(), engine.reader());
    let (mut rows, mut scanned) = (0, 0);
    let (results_ms, cube_ms) = interleaved_minima(
        || rows = results_reader.execute_text(&results).expect("RESULTS executes").payload.rows(),
        || {
            let response = cube_reader.execute_text(&cube).expect("CUBE executes");
            scanned = response.cube().map_or(0, |cube| cube.rows_scanned);
        },
    );
    // One fact row a result row, less the rows without a key.
    if rows == 0 || scanned == 0 || scanned > rows {
        return Err(format!("the cube scanned {scanned} fact rows of {rows} result rows"));
    }
    Ok(cube_statement_verdict(results_ms, cube_ms))
}

/// The index-build gate: both text indexes built over the paper-scale
/// googlebase collection (no engine is built) against one pass that tokenises
/// every text node of it, which must count the tokens the node index holds;
/// then the node index's bytes against their budget.
fn index_build() -> Result<Result<String, String>, String> {
    let collection = Dataset::GoogleBase.generate_paper_scale().map_err(|e| e.to_string())?;
    let (mut tokens, mut bytes) = (0, ReadModelBytes::default());
    let (tokenise_ms, build_ms) = interleaved_minima(
        || {
            let nodes = black_box(&collection).documents().flat_map(|document| document.iter());
            tokens =
                nodes.filter_map(|(_, node)| node.text.as_deref()).map(|t| terms(t).len()).sum();
        },
        || {
            let node_index = black_box(NodeIndex::build(&collection));
            black_box(ContextIndex::build(&collection, CountStorage::DocumentStore));
            bytes = node_index.read_model_bytes();
        },
    );
    // 4 B a token and one 4 B offset a node: an arena smaller than its tokens
    // means one side did not do its work.
    if tokens == 0 || bytes.tokens < 4 * tokens {
        let arena = bytes.tokens;
        return Err(format!("the pass counted {tokens} tokens, the arena holds {arena} bytes"));
    }
    let timing = index_build_verdict(tokenise_ms, build_ms);
    Ok(timing.and_then(|timing| Ok(format!("{timing}; {}", index_bytes_verdict(bytes.total())?))))
}

/// The twig-over-one-scan gate: [`TWIG_PATH`] over the paper-scale RecipeML
/// collection of `engine` against one pass over its nodes that compares each
/// name with the `item` symbol and must count the twig's matches.
fn twig_scan(engine: &SedaEngine) -> Result<Result<String, String>, String> {
    let collection = engine.collection();
    let pattern = TwigPattern::parse(TWIG_PATH).map_err(|e| e.to_string())?;
    let item = collection.symbols().get("item").ok_or("the corpus has no item element")?;
    let (mut items, mut matches) = (0, 0);
    let (scan_ms, twig_ms) = interleaved_minima(
        || {
            let nodes = black_box(collection).documents().flat_map(|document| document.iter());
            items = nodes.filter(|(_, node)| node.name == item).count();
        },
        || matches = black_box(evaluate_twig(collection, &pattern)).len(),
    );
    if items == 0 || items != matches {
        return Err(format!("the scan counted {items} items, the twig matched {matches}"));
    }
    Ok(twig_scan_verdict(scan_ms, twig_ms))
}

/// The twig-statement gate: `TWIG` [`TWIG_PATH`] executed from its text
/// through a reader of `engine` against [`TWIG_PATH`] evaluated directly over
/// the engine's collection; both must count the same matches.
fn twig_statement(engine: &SedaEngine) -> Result<Result<String, String>, String> {
    let pattern = TwigPattern::parse(TWIG_PATH).map_err(|e| e.to_string())?;
    let text = format!("TWIG {TWIG_PATH}");
    let mut reader = engine.reader();
    let (mut matches, mut rows) = (0, 0);
    let (evaluate_ms, statement_ms) = interleaved_minima(
        || matches = black_box(evaluate_twig(engine.collection(), &pattern)).len(),
        || rows = reader.execute_text(&text).expect("TWIG executes").payload.rows(),
    );
    if matches == 0 || rows != matches {
        return Err(format!("the statement returned {rows} rows, the twig matched {matches}"));
    }
    Ok(twig_statement_verdict(evaluate_ms, statement_ms))
}

/// The prepared-over-cold gate: `TOPK 10 FOR` [`PAIR_QUERY`] executed cold
/// and through its prepared statement, which must rank the same tuples.
fn prepared_over_cold(engine: &SedaEngine) -> Result<Result<String, String>, String> {
    let request =
        SedaRequest::parse(&format!("TOPK 10 FOR {PAIR_QUERY}")).map_err(|e| e.to_string())?;
    let (mut cold_reader, mut prepared_reader) = (engine.reader(), engine.reader());
    let mut statement = prepared_reader.prepare(&request).map_err(|e| e.to_string())?;
    let (mut cold, mut prepared) = (None, None);
    let (cold_ms, prepared_ms) = interleaved_minima(
        || cold = Some(cold_reader.execute(&request).expect("cold pair TOPK")),
        || prepared = Some(statement.execute(&mut prepared_reader).expect("prepared pair TOPK")),
    );
    let (cold, prepared) = cold.zip(prepared).ok_or("the pair TOPK never ran")?;
    let tuples = |response: &SedaResponse| response.top_k().map(|r| r.tuples.clone());
    if tuples(&cold).unwrap_or_default().is_empty() || tuples(&prepared) != tuples(&cold) {
        return Err("the prepared and cold pair TOPK disagree".to_string());
    }
    Ok(prepared_over_cold_verdict(
        (cold_ms, cold.profile.label_probes),
        (prepared_ms, prepared.profile.label_probes),
    ))
}

/// The pinned-pairs gate: [`PAIR_QUERY`] through the join and through
/// `search_naive`, which must rank the same tuples from the same pairs.
fn pinned_pairs(engine: &SedaEngine) -> Result<Result<String, String>, String> {
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let terms = term_inputs(engine, PAIR_QUERY)?;
    // The join under the engine's candidate guard, as a request runs it.
    let guard = Some(SearchLimits::CANDIDATE_GUARD);
    let limits = SearchLimits { max_tuples_scored: guard, ..SearchLimits::unlimited() };
    let (mut join_scratch, mut naive_scratch) = (SearchScratch::new(), SearchScratch::new());
    let (mut join, mut naive) = (None, None);
    let (naive_ms, join_ms) = interleaved_minima(
        || naive = Some(searcher.search_naive(&terms, 10, &mut naive_scratch)),
        || join = Some(searcher.search(&terms, 10, &limits, &mut join_scratch).0),
    );
    let (join, naive) = (join.unwrap_or_default(), naive.unwrap_or_default());
    if join.tuples.is_empty() || join.tuples != naive.tuples {
        return Err("the join and search_naive disagree on the pair query".to_string());
    }
    if join.stats.tuples_scored != naive.stats.tuples_scored || join.stats.early_terminated {
        return Err(format!(
            "the two sides scored different pairs: {:?} against {:?}",
            join.stats, naive.stats
        ));
    }
    Ok(pinned_pairs_verdict(naive_ms, join_ms))
}

/// Prints one gate's line; true when it passed.
fn report(verdict: Result<String, String>) -> bool {
    match &verdict {
        Ok(line) => println!("perf_smoke: {line}"),
        Err(line) => eprintln!("perf_smoke: REGRESSION — {line}"),
    }
    verdict.is_ok()
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(failure) => {
            eprintln!("perf_smoke: {failure}");
            ExitCode::FAILURE
        }
    }
}
