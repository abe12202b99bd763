//! # seda-bench
//!
//! What only this crate checks.  Every latency, throughput and memory number
//! comes from the paper-scale harness under `benchmark/` (see
//! `benchmark/README.md`); this crate keeps the `audit` binary and the nine
//! gates of `perf_smoke`, which compare the engine against itself within one
//! process and so need no committed baseline:
//!
//! * **join scaling** — the broad three-term googlebase `TOPK` at 4× the
//!   documents costs at most [`JOIN_SCALING_BOUND`]× the time;
//! * **governance overhead** — the same request under a fully specified,
//!   never-breached [`Budget`] costs at most [`GOVERNANCE_BOUND`]× the
//!   ungoverned run;
//! * **cold over prepared** — the selective three-term `TOPK` executed cold
//!   (term lists evaluated per request) costs at most [`COLD_FILL_BOUND`]× its
//!   prepared statement (lists materialised once): evaluating a term costs
//!   what it returns, not a walk over the index; and its join makes at most
//!   [`SELECTIVE_SORTED_CEILING`] sorted accesses: it reads only the entries
//!   of components where every term meets;
//! * **pinned pairs** — the selective two-term Mondial search through the
//!   Threshold-Algorithm join costs at most [`PINNED_PAIRS_BOUND`]× the same
//!   terms through `search_naive`, which scores the same pairs one-to-one:
//!   one source scanned against many partners, not a label merge per pair;
//! * **prepared over cold** — `TOPK 10 FOR` [`PAIR_QUERY`] through its
//!   prepared statement costs at most [`PREPARED_OVER_COLD_BOUND`]× the same
//!   request executed cold, and spends the cold run's label probes: a
//!   prepared statement holds what a cold search builds and scores its pairs
//!   the same way;
//! * **twig over one scan** — [`TWIG_PATH`] evaluated over the paper-scale
//!   RecipeML collection costs at most [`TWIG_SCAN_BOUND`]× one pass over
//!   every node of that collection comparing its name with one symbol — the
//!   floor of any scan-fed evaluator: one pass per document and nothing
//!   allocated per stream element, per solution or per row;
//! * **twig statement over evaluation** — `TWIG` [`TWIG_PATH`] executed as a
//!   request through a reader of an engine over that collection costs at most
//!   [`TWIG_STATEMENT_BOUND`]× [`TWIG_PATH`] evaluated directly: a `TWIG`
//!   answer costs its evaluation, the evaluator's rows handed over as the
//!   response's table with no second materialisation;
//! * **index build over one tokenising pass** — `NodeIndex::build` plus
//!   `ContextIndex::build` over the paper-scale googlebase collection cost at
//!   most [`INDEX_BUILD_BOUND`]× one pass that tokenises every text node of it
//!   — the floor of any index build: nothing hashed, cloned or allocated per
//!   document beyond the tokens themselves — and the node index it builds
//!   holds at most [`INDEX_BYTES_BUDGET`] bytes, the budget its
//!   `read_model_bytes` docs state;
//! * **cube statement over its results** — the `CUBE` over
//!   [`CUBE_CLAUSE`] on the paper-scale Factbook collection costs at most
//!   [`CUBE_STATEMENT_BOUND`]× the `RESULTS` statement over the same clause,
//!   both executed from their text: deriving the star schema and aggregating
//!   it costs less than the R(q) they read, fact rows held as dictionary
//!   codes rather than strings.
//!
//! Each verdict is a pure function of the measured numbers, so the tests below
//! feed it a regressed engine's numbers and watch it fail.

use std::time::{Duration, Instant};

use seda_core::{Budget, EngineConfig, RequestContext, SedaEngine, SedaQuery};
use seda_datagen::{googlebase, Dataset, GoogleBaseConfig};
use seda_olap::Registry;
use seda_topk::TermInput;

/// The broad request both gates time: three terms, two of them match-all, so
/// every document contributes postings and the rank join does all the work.
pub const BROAD_TOPK: &str = "TOPK 10 FOR (title, model) AND (price, *) AND (condition, new)";

/// The selective request of the cold-over-prepared gate: one category's
/// titles against every price and every new item.  Its join is small (one
/// document in twelve takes part), so whatever a cold run costs beyond the
/// prepared one is term evaluation.
pub const SELECTIVE_TOPK: &str =
    r#"TOPK 10 FOR (title, "laptops") AND (price, *) AND (condition, new)"#;

/// The query of the pinned-pairs gate, on the paper-scale Mondial corpus: one
/// country's names (the country, its provinces and cities: 23 nodes) against
/// every `population` node (4,790, one block of tied scores, so the Threshold
/// Algorithm cannot stop early and scores all 110,170 pairs — the pairs
/// `search_naive` scores).
pub const PAIR_QUERY: &str = r#"(name, "Canada") AND (population, *)"#;

/// The twig of the twig-over-one-scan and twig-statement gates, on the
/// paper-scale RecipeML collection (10,988 documents, 355,535 nodes): 43,945
/// matches, four a document, through one `//` step.
pub const TWIG_PATH: &str = "/recipeml/recipe//item";

/// The `FOR … WITH …` clause of the cube-statement gate, on the paper-scale
/// Factbook collection: factbook-olap's broad `CUBE` — every import partner
/// of every country, ≈ 3.2k fact rows over ≈ 270 partners.
pub const CUBE_CLAUSE: &str = "FOR (trade_country, *) AND (percentage, *) \
     WITH 0 IN /country/economy/import_partners/item/trade_country \
     WITH 1 IN /country/economy/import_partners/item/percentage";

/// Corpus sizes of the join-scaling gate (one-document components each).
pub const BASE_ITEMS: usize = 1_500;
/// Four times [`BASE_ITEMS`]; also the corpus of the other two gates, where
/// the broad request takes ≈ 3 ms and the selective one ≈ 0.6 ms.
pub const SCALED_ITEMS: usize = 4 * BASE_ITEMS;

/// Timed repetitions per side of [`interleaved_minima`].  The broad request
/// takes ≈ 3 ms, and on a noisy host the fastest of fifteen such runs still
/// moves by ±5% from one measurement to the next (governance 0.95–1.15 over
/// twenty runs); the fastest of forty-five moves by ±2.5%, which is what the
/// governance bound has to resolve.
pub const REPS: usize = 45;

/// Allowed `t(SCALED_ITEMS) / t(BASE_ITEMS)`.  A join doing linear work per
/// sorted access reads ≈ 4× (measured 3.76–4.19× over twenty runs); one
/// scanning every seen posting per sorted access reads ≈ 16×.
pub const JOIN_SCALING_BOUND: f64 = 8.0;

/// Allowed `t(governed) / t(ungoverned)`: the worst of twenty measured runs
/// (0.992–1.046, median 1.013) plus their spread, 1.046 + 0.054.  The join
/// reads the clock on every 64th sorted access, which leaves the per-access
/// ceiling comparisons: about a percent.  One clock read per access reads
/// 1.25–1.29× on this request.
pub const GOVERNANCE_BOUND: f64 = 1.10;

/// Allowed `t(cold) / t(prepared)` for [`SELECTIVE_TOPK`] at [`SCALED_ITEMS`]
/// documents.  With terms answered from pre-sorted, path-partitioned postings
/// a cold run adds parsing, planning and three list copies to the join:
/// measured 1.20–1.29× over twenty runs.  An `evaluate_into` that walks every
/// indexed node per match-all term reads 7.5–7.6×.  The join reads only the
/// entries of components where every term meets, so the prepared run is that
/// short join, and the cold run adds the fill of whole lists and the
/// semi-join that cuts them (`(price, *)` is gathered for every document):
/// 1.46–1.56× over four runs.
pub const COLD_FILL_BOUND: f64 = 3.0;

/// Most sorted accesses [`SELECTIVE_TOPK`] may make at [`SCALED_ITEMS`]
/// documents, cold or prepared (the count is deterministic).  The join over
/// semi-joined lists reads 1,284 entries, three a document where all three
/// terms meet; a join over whole lists makes 11,642, as the tied
/// `(price, *)` and `(condition, new)` blocks never let it stop early.  The
/// ceiling is their geometric mean, √(1,284 · 11,642).
pub const SELECTIVE_SORTED_CEILING: usize = 3_866;

/// Allowed `t(join) / t(search_naive)` for [`PAIR_QUERY`].  Both sides score
/// the same 110,170 pairs; `search_naive` merges both labels for every pair
/// (and materialises and sorts every connected tuple), the join pins the node
/// each sorted access returns and scans its partners against it: measured
/// 0.176–0.194 over twenty runs (≈ 5.9 ms against ≈ 32 ms).  A join that
/// merges per pair as well reads 0.42–0.46 (≈ 14.3 ms); the bound sits
/// between the two, at their geometric mean.  Since labels sit on the
/// 2-core alone, both sides read shorter labels: six runs read 0.181–0.228
/// (≈ 5.6–9.3 ms against ≈ 30–41 ms), taken in turns with labels on every
/// hub node, which read 0.176–0.203 on the same noisy 2-core host.
pub const PINNED_PAIRS_BOUND: f64 = 0.30;

/// Allowed `t(prepared) / t(cold)` for `TOPK 10 FOR` [`PAIR_QUERY`] on the
/// paper-scale Mondial corpus.  A prepared statement that holds the plan, the
/// materialised lists and their partition runs the cold run's pinned join
/// minus parsing, planning and list fill: measured 0.965–0.984× over twenty
/// runs (≈ 4.6 ms each side); 0.943–1.003× over six runs with labels on the
/// 2-core alone (0.964–1.063× with labels on every hub node, in turns).  One
/// that memoises every pair's compactness and answers the 110,170 pairs from
/// the memo instead — hashing the pair's node vector on every hit, spending
/// no label probe — reads 2.99–3.31× over twenty runs (≈ 16 ms).  The bound
/// is the geometric mean of the worst new reading and the best old:
/// √(0.984 · 2.993) ≈ 1.7.
pub const PREPARED_OVER_COLD_BOUND: f64 = 1.7;

/// Allowed `t(evaluate_twig) / t(scan)` for [`TWIG_PATH`], the scan being one
/// pass over every node of the collection that compares the node's name with
/// the `item` symbol.  When the bound was set the scan took ≈ 1.0 ms and the
/// evaluation ≈ 6 ms, ≈ 2 ms of it the 43,945 one-element row `Vec`s the
/// result type then demanded: 5.55–6.25× over twenty runs, against
/// 24.9–27.8× in the same twenty runs, taken in turns, for the evaluator
/// before it — one pass and one string comparison per pattern node, a cloned
/// Dewey id per stream element, a `BTreeMap` per solution, one global sort.
/// With the rows in one flat buffer it reads 3.08–3.73× over twenty runs
/// (scan ≈ 2.9 ms, evaluation ≈ 9 ms on a 2-vCPU host whose memory-bound
/// scan ran at a third of its old speed), where the row `Vec`s read
/// 3.66–3.86× in the same twenty runs.  With no Dewey ID stored per node both
/// sides scan a 72-byte `Node` instead of 96 bytes: 2.99–3.12× over five runs
/// (scan 3.1–3.7 ms, evaluation 9.5–11.4 ms on the same 2-vCPU host), against
/// 2.97–4.42× for the 96-byte `Node` in the same runs, taken in turns.  In
/// the host's memory-bound slow state
/// the ratios were also seen up to 12× and 33–50× (the rewrite's prototype),
/// so the bound is the geometric mean of the worst reading of the
/// region-encoded evaluator (12) and the best of the one before (24.9):
/// √(12 · 24.9) ≈ 17.
pub const TWIG_SCAN_BOUND: f64 = 17.0;

/// Allowed `t(TWIG statement) / t(evaluate_twig)` for [`TWIG_PATH`] on the
/// paper-scale RecipeML collection, the statement executed from its text
/// through a reader.  With the evaluator's flat row buffer moved into the
/// response's table the statement costs its evaluation plus parsing and
/// planning: measured 0.996–1.022× over twenty runs (≈ 9.2 ms each side).  A
/// statement that re-materialises the matches — one row `Vec` of
/// `(node, path)` pairs per match, a context lookup per cell — reads
/// 1.386–1.433× in the same twenty runs, taken in turns (≈ 15.4 against
/// ≈ 10.9 ms, the evaluation then also filling a row `Vec` per match).  The
/// bound is the geometric mean of the worst new reading and
/// the best old: √(1.022 · 1.386) ≈ 1.19.
pub const TWIG_STATEMENT_BOUND: f64 = 1.19;

/// Allowed `t(NodeIndex::build + ContextIndex::build) / t(tokenise)` on the
/// paper-scale googlebase collection (10,000 documents, 150,000 text nodes),
/// the tokenising pass being `terms(text).len()` summed over every text node.
/// With the node index built in one pass that interns each token as it reads
/// it, straight into the read model, and the context index built by one fold:
/// measured 6.01–7.91× over eight runs on a 2-core host (≈ 123–173 ms against
/// ≈ 19–22 ms).  The per-document shards merged into the read model that it
/// replaced read 7.01–9.02× in the same turns (5.78–6.39× over twenty runs on
/// a quieter host, ≈ 93 ms against ≈ 15.6 ms).  The builds before those —
/// three hash maps and a `String` per token occurrence a document in the node
/// index, a map and a set per distinct token a document in the context index —
/// read 15.9–17.3× over six runs (≈ 540 ms against ≈ 33 ms: their garbage
/// slows the tokenising pass they take turns with, too).  The bound is the
/// geometric mean of the shards' worst quiet reading and the best old one:
/// √(6.39 · 15.9) ≈ 10.  Since the context index is a view of the node index
/// (it tokenises only the path table's labels, and the node index derives
/// each term's distinct paths from its postings) the builds read 3.81–3.92×
/// (≈ 47–50 ms against ≈ 12–13 ms), against 6.07–6.37× (≈ 80–82 ms) for the
/// builds that tokenised the text twice, three alternating runs each.
pub const INDEX_BUILD_BOUND: f64 = 10.0;

/// Allowed `NodeIndex::read_model_bytes().total()` on the paper-scale
/// googlebase collection: the budget the node index's module docs state for
/// googlebase-flat.  Each posting and each match-all run entry is a 4 B slot,
/// a list stores one score a run of equal scores, and the dictionary is one
/// sorted term arena with 4 B offsets: measured 5,881,650 bytes.  The index that also stored each
/// posting's score, node and path, the match-all runs' nodes and scores, an
/// idf table and a hashed dictionary holding every term twice read
/// 13,200,808 bytes on the benchmark's googlebase-flat collection (seed 21).
/// The budget is half of that, rounded down to 0.1 MB — the target the
/// smaller index was built to.
pub const INDEX_BYTES_BUDGET: usize = 6_300_000;

/// Allowed `t(CUBE) / t(RESULTS)` over [`CUBE_CLAUSE`], grouped by import
/// country and summed, both statements executed from their text through one
/// engine.  With fact rows as dictionary codes — absolute key parts interned
/// once per document, rows sorted and merged on codes, the cube grouped on
/// codes over measures parsed once per distinct value — the `CUBE` costs its
/// `RESULTS` plus ≈ 0.95×: measured 1.83–2.02× over twenty runs (≈ 5.0
/// against ≈ 2.6 ms on a 2-core host).  Fact rows of `String`s, sorted and
/// grouped as string vectors, with every measure parsed per row and every
/// document scanned for the absolute key parts, read 2.81–3.18× in the same
/// twenty runs, taken in turns (≈ 8.4 against ≈ 2.8 ms).  The bound is the
/// geometric mean of the worst new reading and the best old:
/// √(2.02 · 2.81) ≈ 2.38.
pub const CUBE_STATEMENT_BOUND: f64 = 2.38;

/// An engine over a datagen googlebase corpus of `items` flat documents.
pub fn googlebase_engine(items: usize) -> Result<SedaEngine, String> {
    let config = GoogleBaseConfig { items, ..GoogleBaseConfig::small() };
    let collection = googlebase::generate(&config).map_err(|e| e.to_string())?;
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .map_err(|e| e.to_string())
}

/// An engine over the datagen Mondial corpus at paper scale (5,563 documents
/// webbed by IDREF edges into one hub component).
pub fn mondial_engine() -> Result<SedaEngine, String> {
    let collection = Dataset::Mondial.generate_scaled(1.0).map_err(|e| e.to_string())?;
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .map_err(|e| e.to_string())
}

/// The searcher's inputs for the terms of `query` over `engine`.
pub fn term_inputs(engine: &SedaEngine, query: &str) -> Result<Vec<TermInput>, String> {
    let query = SedaQuery::parse(query).map_err(|e| e.to_string())?;
    Ok(query
        .terms
        .iter()
        .map(|term| match term.context.allowed_paths(engine.collection()) {
            Some(paths) => TermInput::with_paths(term.search.clone(), paths),
            None => TermInput::new(term.search.clone()),
        })
        .collect())
}

/// A context whose every ceiling is set and none can be reached, so each
/// governance site does its full check and never breaches.
pub fn generous_context() -> RequestContext {
    RequestContext::new(
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_sorted_accesses(usize::MAX)
            .with_max_random_accesses(usize::MAX)
            .with_max_candidates(usize::MAX)
            .with_max_label_probes(u64::MAX)
            .with_max_rows(usize::MAX),
    )
}

/// Fastest-of-[`REPS`] wall time in milliseconds of `a` and of `b`, after one
/// untimed run of each.  The reps alternate a, b, a, b, … so a slow phase of
/// the host falls on both sides, and the minima compare the two at their
/// undisturbed best.
pub fn interleaved_minima(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e3
    };
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

/// One gate's report line — the ratio `measured_ms / base_ms`, its bound and
/// both times — as `Ok` when the ratio is within `bound`, else as `Err`.
fn bounded_ratio(gate: &str, base_ms: f64, measured_ms: f64, bound: f64) -> Result<String, String> {
    let ratio = measured_ms / base_ms;
    let line =
        format!("{gate} {ratio:.3}x (allowed {bound}x): {measured_ms:.3}ms against {base_ms:.3}ms");
    // Written so that a NaN ratio (a measurement that timed nothing) fails.
    if ratio <= bound {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The join-scaling gate over the broad `TOPK` times at [`BASE_ITEMS`] and
/// [`SCALED_ITEMS`] documents.
pub fn join_scaling_verdict(base_ms: f64, scaled_ms: f64) -> Result<String, String> {
    bounded_ratio("join scaling", base_ms, scaled_ms, JOIN_SCALING_BOUND)
}

/// The governance-overhead gate over one request's ungoverned and governed
/// times.
pub fn governance_verdict(ungoverned_ms: f64, governed_ms: f64) -> Result<String, String> {
    bounded_ratio("governance overhead", ungoverned_ms, governed_ms, GOVERNANCE_BOUND)
}

/// The cold-over-prepared gate over one request's prepared and cold times and
/// the cold run's sorted accesses: the time ratio within its bound, and the
/// accesses within [`SELECTIVE_SORTED_CEILING`].
pub fn cold_fill_verdict(
    prepared_ms: f64,
    (cold_ms, sorted_accesses): (f64, usize),
) -> Result<String, String> {
    let verdict = bounded_ratio("cold over prepared", prepared_ms, cold_ms, COLD_FILL_BOUND);
    let line = verdict.as_ref().unwrap_or_else(|line| line);
    let line =
        format!("{line}; {sorted_accesses} sorted accesses (allowed {SELECTIVE_SORTED_CEILING})");
    if verdict.is_ok() && sorted_accesses <= SELECTIVE_SORTED_CEILING {
        Ok(line)
    } else {
        Err(line)
    }
}

/// The pinned-pairs gate over one query's `search_naive` and join times.
pub fn pinned_pairs_verdict(naive_ms: f64, join_ms: f64) -> Result<String, String> {
    bounded_ratio("pinned pairs over one-to-one", naive_ms, join_ms, PINNED_PAIRS_BOUND)
}

/// The prepared-over-cold gate over one request's cold and prepared `(time,
/// label probes)`: the time ratio within its bound, and the same probes on
/// both sides.
pub fn prepared_over_cold_verdict(
    (cold_ms, cold_probes): (f64, u64),
    (prepared_ms, prepared_probes): (f64, u64),
) -> Result<String, String> {
    let verdict =
        bounded_ratio("prepared over cold", cold_ms, prepared_ms, PREPARED_OVER_COLD_BOUND);
    if prepared_probes == cold_probes {
        verdict
    } else {
        let line = verdict.unwrap_or_else(|line| line);
        Err(format!("{line}; label probes {prepared_probes} against {cold_probes}"))
    }
}

/// The twig-over-one-scan gate over the times of one name-comparing pass
/// across the collection and of the twig evaluation.
pub fn twig_scan_verdict(scan_ms: f64, twig_ms: f64) -> Result<String, String> {
    bounded_ratio("twig over one scan", scan_ms, twig_ms, TWIG_SCAN_BOUND)
}

/// The twig-statement gate over the times of the direct twig evaluation and
/// of the same twig executed as a `TWIG` request.
pub fn twig_statement_verdict(evaluate_ms: f64, statement_ms: f64) -> Result<String, String> {
    bounded_ratio("twig statement over evaluation", evaluate_ms, statement_ms, TWIG_STATEMENT_BOUND)
}

/// The index-build gate over the times of one tokenising pass across the
/// collection and of building both text indexes over it.
pub fn index_build_verdict(tokenise_ms: f64, build_ms: f64) -> Result<String, String> {
    bounded_ratio("index build over one tokenising pass", tokenise_ms, build_ms, INDEX_BUILD_BOUND)
}

/// The byte half of the index-build gate, over the node index's total heap
/// bytes: a deterministic bound, no timing.
pub fn index_bytes_verdict(bytes: usize) -> Result<String, String> {
    let verdict = format!("node index {bytes} bytes (budget {INDEX_BYTES_BUDGET})");
    if bytes > 0 && bytes <= INDEX_BYTES_BUDGET {
        Ok(verdict)
    } else {
        Err(verdict)
    }
}

/// The cube-statement gate over the times of the `RESULTS` and the `CUBE`
/// statement over [`CUBE_CLAUSE`].
pub fn cube_statement_verdict(results_ms: f64, cube_ms: f64) -> Result<String, String> {
    bounded_ratio("cube statement over its results", results_ms, cube_ms, CUBE_STATEMENT_BOUND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_core::SedaRequest;

    #[test]
    fn join_scaling_fails_on_a_prefix_scan_join_and_passes_on_the_measured_pair() {
        // The join PR 12 removed: 4x the documents, 16x the time.
        let failure = join_scaling_verdict(1.0, 16.0).unwrap_err();
        assert!(failure.starts_with("join scaling 16.000x (allowed 8x)"), "{failure}");
        // The least favourable pair recorded on the component-partitioned join.
        let pass = join_scaling_verdict(1.29, 7.66).unwrap();
        assert!(pass.starts_with("join scaling 5.938x"), "{pass}");
    }

    #[test]
    fn governance_fails_on_a_clock_read_per_access_and_passes_on_the_measured_pair() {
        // The deadline check as it was: `Instant::now()` on every sorted access.
        let failure = governance_verdict(2.845, 3.593).unwrap_err();
        assert!(failure.starts_with("governance overhead 1.263x (allowed 1.1x)"), "{failure}");
        // The least favourable of the twenty runs behind the bound.
        let pass = governance_verdict(2.933, 3.067).unwrap();
        assert!(pass.starts_with("governance overhead 1.046x"), "{pass}");
        // A measurement that timed nothing is a failure, not a pass.
        assert!(governance_verdict(0.0, 0.0).is_err());
    }

    #[test]
    fn cold_fill_fails_on_an_index_walk_per_term_and_passes_on_the_measured_pair() {
        // The parent of the path-partitioned postings: every `(tag, *)` term
        // of a cold request walked and re-scored every indexed node.
        let failure = cold_fill_verdict(0.848, (6.351, 1_284)).unwrap_err();
        assert!(failure.starts_with("cold over prepared 7.489x (allowed 3x)"), "{failure}");
        // The least favourable of twenty runs on the partitioned postings.
        let pass = cold_fill_verdict(0.483, (0.626, 1_284)).unwrap();
        assert!(pass.starts_with("cold over prepared 1.296x"), "{pass}");
        assert!(pass.ends_with("; 1284 sorted accesses (allowed 3866)"), "{pass}");
    }

    #[test]
    fn cold_fill_fails_on_a_join_that_reads_every_entry() {
        // A join over whole lists, with no component semi-join: fast enough,
        // but it reads every entry of every list.
        let failure = cold_fill_verdict(0.483, (0.626, 11_642)).unwrap_err();
        assert!(failure.starts_with("cold over prepared 1.296x"), "{failure}");
        assert!(failure.ends_with("; 11642 sorted accesses (allowed 3866)"), "{failure}");
        assert!(cold_fill_verdict(0.483, (0.626, SELECTIVE_SORTED_CEILING)).is_ok());
    }

    #[test]
    fn pinned_pairs_fail_on_a_merge_per_pair_and_pass_on_the_measured_pair() {
        // The join before pairs were pinned: both labels merged for every
        // pair, as `search_naive` does (the most favourable of three runs).
        let failure = pinned_pairs_verdict(34.446, 14.462).unwrap_err();
        assert!(failure.starts_with("pinned pairs over one-to-one 0.420x (allowed 0.3x)"));
        // The least favourable of the twenty runs behind the bound.
        let pass = pinned_pairs_verdict(30.179, 5.841).unwrap();
        assert!(pass.starts_with("pinned pairs over one-to-one 0.194x"), "{pass}");
    }

    #[test]
    fn prepared_over_cold_fails_on_memoised_compactness_and_passes_on_the_measured_pair() {
        // Prepared statements that memoised every pair's compactness, at
        // their most favourable of twenty runs: slower, and no probes.
        let failure = prepared_over_cold_verdict((4.844, 1_399_332), (14.497, 0)).unwrap_err();
        assert!(failure.starts_with("prepared over cold 2.993x (allowed 1.7x)"), "{failure}");
        assert!(failure.ends_with("label probes 0 against 1399332"), "{failure}");
        // Fast enough, but a probe count that differs from the cold run's.
        let failure = prepared_over_cold_verdict((4.844, 1_399_332), (4.844, 0)).unwrap_err();
        assert!(failure.starts_with("prepared over cold 1.000x"), "{failure}");
        // The least favourable of the twenty runs behind the bound.
        let pass = prepared_over_cold_verdict((4.735, 1_399_332), (4.661, 1_399_332)).unwrap();
        assert!(pass.starts_with("prepared over cold 0.984x"), "{pass}");
    }

    #[test]
    fn twig_scan_fails_on_a_pass_per_pattern_node_and_passes_on_the_measured_pair() {
        // The evaluator before the region-encoded rewrite, at its most
        // favourable of twenty runs.
        let failure = twig_scan_verdict(1.270, 31.644).unwrap_err();
        assert!(failure.starts_with("twig over one scan 24.917x (allowed 17x)"), "{failure}");
        // The least favourable of the twenty runs of the new one.
        let pass = twig_scan_verdict(0.993, 6.209).unwrap();
        assert!(pass.starts_with("twig over one scan 6.253x"), "{pass}");
    }

    #[test]
    fn twig_statement_fails_on_a_second_materialisation_and_passes_on_the_measured_pair() {
        // The statement that shaped every match into a row of `(node, path)`
        // pairs, at its most favourable of twenty runs.
        let failure = twig_statement_verdict(10.945, 15.168).unwrap_err();
        assert!(
            failure.starts_with("twig statement over evaluation 1.386x (allowed 1.19x)"),
            "{failure}"
        );
        // The least favourable of the twenty runs of the moved buffer.
        let pass = twig_statement_verdict(8.703, 8.897).unwrap();
        assert!(pass.starts_with("twig statement over evaluation 1.022x"), "{pass}");
    }

    #[test]
    fn index_build_fails_on_a_map_per_document_and_passes_on_the_measured_pair() {
        // Both indexes as they were built before the flat builds and the one
        // fold, at their most favourable of six runs.
        let failure = index_build_verdict(33.411, 532.678).unwrap_err();
        assert!(
            failure.starts_with("index build over one tokenising pass 15.943x (allowed 10x)"),
            "{failure}"
        );
        // The least favourable of the twenty runs of the flat builds.
        let pass = index_build_verdict(15.599, 99.707).unwrap();
        assert!(pass.starts_with("index build over one tokenising pass 6.392x"), "{pass}");
    }

    #[test]
    fn index_bytes_fail_on_the_stored_scores_and_paths_and_pass_on_the_measured_total() {
        // The node index that stored every derivable table.
        let failure = index_bytes_verdict(13_200_808).unwrap_err();
        assert_eq!(failure, "node index 13200808 bytes (budget 6300000)");
        let pass = index_bytes_verdict(5_881_650).unwrap();
        assert_eq!(pass, "node index 5881650 bytes (budget 6300000)");
        // A measurement that counted nothing is a failure, not a pass.
        assert!(index_bytes_verdict(0).is_err());
    }

    #[test]
    fn cube_statement_fails_on_string_fact_rows_and_passes_on_the_measured_pair() {
        // Fact rows of strings, at their most favourable of twenty runs.
        let failure = cube_statement_verdict(4.690, 13.177).unwrap_err();
        assert!(
            failure.starts_with("cube statement over its results 2.810x (allowed 2.38x)"),
            "{failure}"
        );
        // The least favourable of the twenty runs of the coded rows.
        let pass = cube_statement_verdict(2.283, 4.608).unwrap();
        assert!(pass.starts_with("cube statement over its results 2.018x"), "{pass}");
    }

    /// The seeded slowdown: the governed side does the request twice, and the
    /// real measuring helper plus the real verdict must see it.
    #[test]
    fn a_seeded_slow_governed_side_fails_the_gate_through_the_real_helper() {
        let engine = googlebase_engine(300).unwrap();
        let request = SedaRequest::parse(BROAD_TOPK).unwrap();
        let (mut plain, mut slowed) = (engine.reader(), engine.reader());
        let unlimited = RequestContext::unlimited();
        let (ungoverned_ms, governed_ms) = interleaved_minima(
            || drop(plain.execute_governed(&request, &unlimited).unwrap()),
            || {
                for _ in 0..2 {
                    slowed.execute_governed(&request, &generous_context()).unwrap();
                }
            },
        );
        governance_verdict(ungoverned_ms, governed_ms).unwrap_err();
    }
}
