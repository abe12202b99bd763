//! CI perf smoke check: the seven gates of [`seda_bench`], measured on this
//! machine against this build — no argument, no file, no environment variable.
//!
//! ```text
//! cargo run --release -p seda-bench --bin perf_smoke
//! ```
//!
//! Prints the seven measured ratios with their bounds and exits non-zero when
//! any gate fails.  Absolute latencies are `benchmark/run.sh`'s business.

use std::hint::black_box;
use std::process::ExitCode;

use seda_bench::{
    cold_fill_verdict, generous_context, googlebase_engine, governance_verdict,
    index_build_verdict, interleaved_minima, join_scaling_verdict, mondial_engine,
    pinned_pairs_verdict, prepared_over_cold_verdict, term_inputs, twig_scan_verdict, BASE_ITEMS,
    BROAD_TOPK, PAIR_QUERY, SCALED_ITEMS, SELECTIVE_TOPK, TWIG_PATH,
};
use seda_core::seda_textindex::{terms, ContextIndex, CountStorage, NodeIndex};
use seda_core::seda_topk::{SearchLimits, SearchScratch, TopKConfig, TopKSearcher};
use seda_core::seda_twigjoin::{evaluate_twig, TwigPattern};
use seda_core::{RequestContext, SedaEngine, SedaReader, SedaRequest, SedaResponse};
use seda_datagen::Dataset;

/// Measures the seven gates and prints each verdict; `Ok(false)` when any failed.
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
    let (prepared_ms, cold_ms) = interleaved_minima(
        || drop(statement.execute(&mut prepared_reader).expect("prepared selective TOPK")),
        || drop(scaled.execute_governed(&selective, &unlimited).expect("cold selective TOPK")),
    );
    let cold_fill = report(cold_fill_verdict(prepared_ms, cold_ms));
    let mondial = mondial_engine()?;
    let pinned_pairs = report(pinned_pairs(&mondial)?);
    let prepared_over_cold = report(prepared_over_cold(&mondial)?);
    drop(mondial);
    let twig_scan = report(twig_scan()?);
    let index_build = report(index_build()?);
    Ok(scaling
        && governance
        && cold_fill
        && pinned_pairs
        && prepared_over_cold
        && twig_scan
        && index_build)
}

/// The index-build gate: both text indexes built over the paper-scale
/// googlebase collection (no engine is built) against one pass that tokenises
/// every text node of it, which must count the tokens the node index holds.
fn index_build() -> Result<Result<String, String>, String> {
    let collection = Dataset::GoogleBase.generate_paper_scale().map_err(|e| e.to_string())?;
    let (mut tokens, mut indexed) = (0, 0);
    let (tokenise_ms, build_ms) = interleaved_minima(
        || {
            let nodes = black_box(&collection).documents().flat_map(|document| document.iter());
            tokens =
                nodes.filter_map(|(_, node)| node.text.as_deref()).map(|t| terms(t).len()).sum();
        },
        || {
            let node_index = black_box(NodeIndex::build(&collection));
            black_box(ContextIndex::build(&collection, CountStorage::DocumentStore));
            indexed = node_index.read_model_bytes().tokens;
        },
    );
    // 4 B a token and one 4 B offset a node: an arena smaller than its tokens
    // means one side did not do its work.
    if tokens == 0 || indexed < 4 * tokens {
        return Err(format!("the pass counted {tokens} tokens, the arena holds {indexed} bytes"));
    }
    Ok(index_build_verdict(tokenise_ms, build_ms))
}

/// The twig-over-one-scan gate: [`TWIG_PATH`] over the paper-scale RecipeML
/// collection (no engine is built) against one pass over its nodes that
/// compares each name with the `item` symbol and must count the twig's matches.
fn twig_scan() -> Result<Result<String, String>, String> {
    let collection = Dataset::RecipeMl.generate_scaled(1.0).map_err(|e| e.to_string())?;
    let pattern = TwigPattern::parse(TWIG_PATH).map_err(|e| e.to_string())?;
    let item = collection.symbols().get("item").ok_or("the corpus has no item element")?;
    let (mut items, mut matches) = (0, 0);
    let (scan_ms, twig_ms) = interleaved_minima(
        || {
            let nodes = black_box(&collection).documents().flat_map(|document| document.iter());
            items = nodes.filter(|(_, node)| node.name == item).count();
        },
        || matches = black_box(evaluate_twig(&collection, &pattern)).len(),
    );
    if items == 0 || items != matches {
        return Err(format!("the scan counted {items} items, the twig matched {matches}"));
    }
    Ok(twig_scan_verdict(scan_ms, twig_ms))
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
    let config = TopKConfig { k: 10, ..engine.config().topk.clone() };
    let limits = SearchLimits::unlimited();
    let (mut join_scratch, mut naive_scratch) = (SearchScratch::new(), SearchScratch::new());
    let (mut join, mut naive) = (None, None);
    let (naive_ms, join_ms) = interleaved_minima(
        || naive = Some(searcher.search_naive(&terms, &config, &mut naive_scratch)),
        || join = Some(searcher.search(&terms, &config, &limits, &mut join_scratch).0),
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
