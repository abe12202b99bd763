//! The optimized Threshold-Algorithm searcher must return exactly the same
//! top-k answers as the exhaustive `search_naive` oracle — same tuples, same
//! scores (within 1e-9) — across randomized datagen corpora.
//!
//! This pins the whole optimized read path at once: the interned score-sorted
//! postings of `NodeIndex`, the CSR adjacency + cached components of
//! `DataGraph`, and the allocation-free join loop of `TopKSearcher`.

use proptest::prelude::*;

use seda_core::{EngineConfig, SedaEngine, SedaQuery, SedaRequest};
use seda_datagen::{googlebase, mondial, Dataset, GoogleBaseConfig, MondialConfig};
use seda_olap::Registry;
use seda_topk::{SearchLimits, SearchScratch, TermInput, TopKConfig, TopKSearcher};
use seda_xmlstore::{parse_collection, Collection};

fn engine(collection: Collection) -> SedaEngine {
    SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        .expect("engine build")
}

/// Resolves a query string to concrete term inputs the searchers accept.
fn term_inputs(engine: &SedaEngine, query_text: &str) -> Vec<TermInput> {
    let collection = engine.collection();
    SedaQuery::parse(query_text)
        .expect("query parses")
        .terms
        .iter()
        .map(|t| match t.context.allowed_paths(collection) {
            Some(paths) => TermInput::with_paths(t.search.clone(), paths),
            None => TermInput::new(t.search.clone()),
        })
        .collect()
}

/// Asserts TA == naive: same tuple count, same scores within 1e-9, and the
/// same node tuples (both searchers break score ties by ascending node
/// tuples, so the sequences must agree exactly).
fn assert_equivalent(
    engine: &SedaEngine,
    terms: &[TermInput],
    k: usize,
) -> Result<(), TestCaseError> {
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let config = TopKConfig::with_k(k);
    let mut scratch = SearchScratch::new();
    let ta = searcher.search(terms, &config, &SearchLimits::unlimited(), &mut scratch).0;
    let naive = searcher.search_naive(terms, &config, &mut scratch);
    prop_assert_eq!(ta.tuples.len(), naive.tuples.len(), "result sizes differ");
    for (i, (a, b)) in ta.tuples.iter().zip(naive.tuples.iter()).enumerate() {
        prop_assert!(
            (a.score - b.score).abs() < 1e-9,
            "scores diverge at rank {}: TA {} vs naive {}",
            i,
            a.score,
            b.score
        );
        prop_assert_eq!(
            &a.nodes,
            &b.nodes,
            "tuples diverge at rank {}: TA {:?} vs naive {:?}",
            i,
            &a.nodes,
            &b.nodes
        );
    }
    // Neither search may have clipped candidates, otherwise the oracle
    // comparison would be vacuous.
    prop_assert_eq!(ta.stats.candidates_truncated, 0);
    prop_assert_eq!(naive.stats.candidates_truncated, 0);
    Ok(())
}

/// TA == naive when many tuples tie.  Scores must agree rank by rank; the
/// node tuples too, unless TA stopped early — then unseen combinations may
/// tie the k-th score, and TA's tuples need only be genuine answers (present
/// in the exhaustive ranking with the same score).
fn assert_equivalent_under_ties(
    engine: &SedaEngine,
    terms: &[TermInput],
    k: usize,
) -> Result<(), TestCaseError> {
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let mut scratch = SearchScratch::new();
    let unlimited = SearchLimits::unlimited();
    let ta = searcher.search(terms, &TopKConfig::with_k(k), &unlimited, &mut scratch).0;
    let all = searcher.search_naive(terms, &TopKConfig::with_k(usize::MAX), &mut scratch);
    prop_assert_eq!(all.stats.candidates_truncated, 0);
    prop_assert_eq!(ta.tuples.len(), all.tuples.len().min(k), "result sizes differ");
    for (i, (a, b)) in ta.tuples.iter().zip(all.tuples.iter()).enumerate() {
        prop_assert!(
            (a.score - b.score).abs() < 1e-9,
            "scores diverge at rank {}: TA {} vs naive {}",
            i,
            a.score,
            b.score
        );
        if ta.stats.early_terminated {
            let same = all.tuples.iter().find(|t| t.nodes == a.nodes);
            prop_assert!(
                same.is_some_and(|t| (t.score - a.score).abs() < 1e-9),
                "TA tuple at rank {} is not an answer: {:?}",
                i,
                &a.nodes
            );
        } else {
            prop_assert_eq!(&a.nodes, &b.nodes, "tuples diverge at rank {}", i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Many one-document components over a two-word vocabulary: most content
    /// scores tie, every list holds entries of every component, and the
    /// partitioned join must still enumerate exactly the same-component
    /// combinations — in an order that breaks ties like the oracle.
    #[test]
    fn ta_matches_naive_on_many_tied_components(
        words in proptest::collection::vec(0u8..2, 30..180),
        k in 1usize..12,
    ) {
        let vocab = ["alpha", "beta"];
        let docs: Vec<(String, String)> = words
            .chunks(3)
            .enumerate()
            .map(|(i, chunk)| {
                let leaves: String = chunk
                    .iter()
                    .enumerate()
                    .map(|(j, &w)| format!("<f{j}>{}</f{j}>", vocab[w as usize]))
                    .collect();
                (format!("d{i}.xml"), format!("<doc>{leaves}</doc>"))
            })
            .collect();
        let borrowed = docs.iter().map(|(name, xml)| (name.as_str(), xml.as_str()));
        let engine = engine(parse_collection(borrowed).expect("corpus parses"));
        prop_assert_eq!(engine.graph().doc_component_count(), engine.collection().len());
        for text in ["(*, alpha) AND (*, *)", "(*, alpha) AND (*, *) AND (*, beta)"] {
            let terms = term_inputs(&engine, text);
            assert_equivalent_under_ties(&engine, &terms, k)?;
        }
    }

    /// Mondial-like corpora: cross-document IDREF edges make the document
    /// components non-trivial, so this exercises component pruning and the
    /// cross-document BFS of the compactness scoring.
    #[test]
    fn ta_matches_naive_on_mondial(
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
        let engine = engine(mondial::generate(&config).expect("generate mondial"));
        let terms = term_inputs(&engine, "(name, *) AND (population, *)");
        assert_equivalent(&engine, &terms, k)?;
    }

    /// Google-Base-like corpora: heterogeneous single-item documents with no
    /// cross edges, so every document is its own component and the join is
    /// dominated by component pruning and content scoring.
    #[test]
    fn ta_matches_naive_on_googlebase(
        items in 5usize..40,
        categories in 1usize..6,
        seed in 0u64..1_000,
        k in 1usize..8,
    ) {
        let config = GoogleBaseConfig { items, categories, attributes_per_category: 4, seed };
        let engine = engine(googlebase::generate(&config).expect("generate googlebase"));
        let terms = term_inputs(&engine, "(title, model) AND (price, *)");
        assert_equivalent(&engine, &terms, k)?;
    }
}

/// Fixed small workloads, one per corpus shape, agree between TA and the
/// oracle too (non-random sanity anchor for the property above).
#[test]
fn ta_matches_naive_on_fixed_small_workloads() {
    let engine = engine(mondial::generate(&MondialConfig::small()).expect("generate mondial"));
    let terms = term_inputs(&engine, "(name, *) AND (population, *)");
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let mut scratch = SearchScratch::new();
    let config = TopKConfig::with_k(10);
    let ta = searcher.search(&terms, &config, &SearchLimits::unlimited(), &mut scratch).0;
    let naive = searcher.search_naive(&terms, &config, &mut scratch);
    assert_eq!(ta.tuples.len(), naive.tuples.len());
    for (a, b) in ta.tuples.iter().zip(naive.tuples.iter()) {
        assert!((a.score - b.score).abs() < 1e-9);
        assert_eq!(a.nodes, b.nodes);
    }
    // The engine-level entry point agrees with the direct searcher.
    let via_engine = engine
        .reader()
        .execute(&SedaRequest::parse("TOPK 10 FOR (name, *) AND (population, *)").unwrap())
        .unwrap();
    assert_eq!(via_engine.top_k().unwrap().tuples, ta.tuples);
}

/// One term is ranked retrieval, and the one join answers it as such: it
/// reads the first `min(k, len)` postings (fewer when the candidate bound is
/// lower), scores each as a maximally compact singleton without a random
/// access or a label probe, and stops on the threshold exactly when the k-th
/// read happened — the list held `k` entries and the bound did not stop the
/// loop first.  Fresh and prepared (materialised) lists answer alike.
#[test]
fn one_list_join_reads_the_sorted_prefix_and_stops() {
    let corpus = GoogleBaseConfig { items: 40, categories: 4, attributes_per_category: 4, seed: 7 };
    let engine = engine(googlebase::generate(&corpus).expect("generate googlebase"));
    let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
    let terms = term_inputs(&engine, "(price, *)");
    let materialized = searcher.materialize_terms(&terms);
    let len = materialized.list_len(0);
    assert!(len > 5, "the list must outgrow the small ks: {len}");
    let unlimited = SearchLimits::unlimited();
    let mut scratch = SearchScratch::new();
    let mut cases: Vec<TopKConfig> =
        [0, 1, 5, len, len + 3].into_iter().map(TopKConfig::with_k).collect();
    cases.push(TopKConfig { candidate_limit: 3, ..TopKConfig::with_k(5) });
    for config in cases {
        let (k, bound) = (config.k, config.candidate_limit);
        let (result, breach) = searcher.search(&terms, &config, &unlimited, &mut scratch);
        assert!(breach.is_none());
        let read = k.min(len).min(bound);
        let stats = &result.stats;
        assert_eq!((stats.sorted_accesses, stats.tuples_scored), (read, read), "k={k}");
        assert_eq!((stats.random_accesses, stats.label_probes), (0, 0), "k={k}");
        assert_eq!(stats.early_terminated, k > 0 && len >= k && bound > k, "k={k}");
        assert_eq!(result.tuples.len(), read, "k={k}");
        assert!(result.tuples.iter().all(|t| t.nodes.len() == 1 && t.compactness == 1.0));
        assert!(result.tuples.windows(2).all(|w| w[0].score >= w[1].score), "k={k}");
        let (replayed, _) =
            searcher.search_materialized(&materialized, &config, &unlimited, &mut scratch);
        assert_eq!(replayed, result, "k={k}");
    }
}

/// One `SearchScratch` carried across engines, term counts and a breached
/// search must answer exactly like a fresh scratch every time: the component
/// partition, the list buffers and the join arenas are rebuilt per search, so
/// nothing of an earlier (or aborted) search may leak into the next.
#[test]
fn one_scratch_across_engines_term_counts_and_a_breach_matches_fresh_scratches() {
    let flat = engine(googlebase::generate(&GoogleBaseConfig::small()).expect("googlebase"));
    let linked = engine(mondial::generate(&MondialConfig::small()).expect("mondial"));
    let unlimited = SearchLimits::unlimited();
    let tight = SearchLimits { max_random_accesses: Some(20), ..SearchLimits::unlimited() };
    let rounds: [(&SedaEngine, &str, &SearchLimits); 7] = [
        (&flat, "(title, model) AND (price, *) AND (condition, new)", &unlimited),
        (&linked, "(name, *) AND (population, *)", &unlimited),
        (&flat, "(title, model) AND (price, *) AND (condition, new)", &tight),
        (&flat, "(title, model) AND (price, *)", &unlimited),
        (&linked, "(name, *) AND (population, *)", &tight),
        (&flat, "(price, *)", &unlimited),
        (&linked, "(/country/name, *) AND (population, *) AND (/sea/name, *)", &unlimited),
    ];
    let mut shared = SearchScratch::new();
    let mut breaches = 0;
    for (round, (engine, text, limits)) in rounds.into_iter().enumerate() {
        let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
        let terms = term_inputs(engine, text);
        let config = TopKConfig::with_k(10);
        let reused = searcher.search(&terms, &config, limits, &mut shared);
        let fresh = searcher.search(&terms, &config, limits, &mut SearchScratch::new());
        assert_eq!(reused, fresh, "round {round}: {text}");
        assert!(!reused.0.tuples.is_empty(), "round {round} must find answers: {text}");
        breaches += usize::from(reused.1.is_some());
        let reused_naive = searcher.search_naive(&terms, &config, &mut shared);
        let fresh_naive = searcher.search_naive(&terms, &config, &mut SearchScratch::new());
        assert_eq!(reused_naive, fresh_naive, "round {round} (naive)");
        shared.verify().expect("scratch stays structurally sound");
    }
    assert_eq!(breaches, 2, "both tight rounds must stop on their budget");
}

/// Top-k is a prefix of top-(k+1): raising `k` by one appends at most one
/// tuple and moves none of the first `k`, nodes and score bits alike.  Held
/// for k = 1..=40 through `execute_text` on the four small corpora, over the
/// two-term, three-term and broad shapes of `tests/topk_golden_stats.rs`.
/// A clipped candidate set is outside the property, so every answer checked
/// must have kept all its candidates.
#[test]
fn top_k_is_a_prefix_of_top_k_plus_one() {
    let shapes = |dataset: Dataset| match dataset {
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
    };
    let mut checks = 0;
    for dataset in Dataset::ALL {
        let engine = engine(dataset.generate_small().expect("generate corpus"));
        let mut reader = engine.reader();
        for query in shapes(dataset) {
            let answers: Vec<Vec<_>> = (1..=40)
                .map(|k| {
                    let text = format!("TOPK {k} FOR {query}");
                    let response = reader.execute_text(&text).expect("request executes");
                    let result = response.top_k().expect("a top-k payload");
                    assert_eq!(result.stats.candidates_truncated, 0, "{dataset:?}: {text}");
                    result.tuples.iter().map(|t| (t.nodes.clone(), t.score.to_bits())).collect()
                })
                .collect();
            for (k, pair) in (1..).zip(answers.windows(2)) {
                let (top_k, top_k_plus_one) = (&pair[0], &pair[1]);
                assert!(top_k_plus_one.len() <= k + 1, "{dataset:?} k={k}: {query}");
                assert!(top_k_plus_one.starts_with(top_k), "{dataset:?} k={k}: {query}");
                checks += 1;
            }
        }
    }
    assert_eq!(checks, 4 * 3 * 39);
}
