//! Golden work counters of the Threshold-Algorithm join.
//!
//! `tests/golden/topk_stats.txt` was recorded on the commit *before* the
//! component-partitioned join replaced the nested-loop candidate generation
//! (ISSUE 12).  The partitioned join must enumerate exactly the combinations
//! the prefix scan enumerated, in the same order, so the top-k tuples, every
//! score bit, every [`SearchStats`] counter, the `candidate_limit` clipping
//! points and the budget breach sites all have to repeat — on every corpus
//! shape, term count and `k`.  Any later change to candidate generation is
//! held to the same file.
//!
//! Re-recorded once since, deliberately and in one column: ISSUE 19 (pairs of
//! a cold search are scored by pinning the node just read and scanning each
//! partner's label, instead of merging both labels per pair) changed
//! `probes=` on two-term, `broad` and `clipped` lines — every one of those
//! queries has two terms — and nothing else: with `probes=[0-9]*` masked the
//! old and the new file are equal, and no three-term line moved, budget
//! breach sites included.
//!
//! Re-recorded a second time when tree distances stopped coming from labels:
//! a pair inside a document no cross edge touches is a parent walk, and
//! `label_probes` counts its steps instead of label entries.  With
//! `probes=[0-9]*` masked only two lines moved, both `budget probes<=200`
//! breach lines of tree corpora: RecipeML's stops at the same place having
//! spent 280 instead of 206, and World Factbook's stops earlier (25 sorted
//! accesses and 18 tuples instead of 28 and 24) with the same top tuple and
//! digest.  Google Base's probe counts repeat (two parent steps where two
//! label entries were read), and the Mondial block is byte-identical.
//!
//! Re-recorded a third time when labels moved onto the 2-core: a pair of
//! Mondial's hub documents reads the core labels of its two attachments, or
//! climbs when they share one, and `label_probes` counts those entries and
//! steps.  Only the sixteen Mondial lines moved.  Their unbudgeted probe
//! counts fell (two-term 316,909 → 254,906, three-term 1,330,420 → 607,728,
//! broad 158,025 → 72,617, clipped 5,260 → 4,889).  With `probes=[0-9]*`
//! masked one line differs: the three-term `budget probes<=200` breach.
//! Each tuple costs fewer probes, so the search gets further before the
//! ceiling stops it — 7 sorted accesses, 21 random, 12 tuples scored and 10
//! returned, 288 probes spent, where it stopped at 6, 15, 8, 8 and 348 —
//! and its best tuple so far is a different one.  Every other Mondial line,
//! budget breaches included, repeats its tuples, digests and counters.
//!
//! One [`SearchScratch`] serves all cases, and every case also runs over
//! materialised term lists (the prepared-statement path), which must agree
//! with the cold search.
//!
//! When the test fails it writes what it computed to
//! `target/tmp/topk_stats.actual.txt` (cargo's `CARGO_TARGET_TMPDIR`); diff
//! that against the golden file.  Only a change that is *meant* to alter the
//! join's work counters may replace the golden file with it.

use std::fmt::Write as _;

use seda_core::{EngineConfig, SedaEngine, SedaQuery};
use seda_datagen::Dataset;
use seda_olap::Registry;
use seda_topk::{
    LimitBreach, SearchLimits, SearchScratch, TermInput, TopKConfig, TopKResult, TopKSearcher,
};

const GOLDEN: &str = include_str!("golden/topk_stats.txt");

/// `(label, query text, candidate_limit)` per case; `None` keeps the default
/// candidate limit.
type Case = (&'static str, &'static str, Option<usize>);

fn cases(dataset: Dataset) -> [Case; 4] {
    match dataset {
        Dataset::GoogleBase => [
            ("two-term", "(title, model) AND (price, *)", None),
            ("three-term", "(title, model) AND (price, *) AND (condition, new)", None),
            ("broad", "(*, *) AND (price, *)", None),
            ("clipped", "(*, *) AND (price, *)", Some(40)),
        ],
        Dataset::Mondial => [
            ("two-term", "(name, *) AND (population, *)", None),
            ("three-term", "(/country/name, *) AND (population, *) AND (/sea/name, *)", None),
            ("broad", "(*, *) AND (/sea/name, *)", None),
            ("clipped", "(name, *) AND (population, *)", Some(500)),
        ],
        Dataset::RecipeMl => [
            ("two-term", "(title, *) AND (item, *)", None),
            ("three-term", "(title, *) AND (item, *) AND (qty, *)", None),
            ("broad", "(*, *) AND (title, *)", None),
            ("clipped", "(title, *) AND (item, *) AND (qty, *)", Some(300)),
        ],
        Dataset::WorldFactbook => [
            ("two-term", "(trade_country, *) AND (percentage, *)", None),
            (
                "three-term",
                r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#,
                None,
            ),
            ("broad", "(*, *) AND (percentage, *)", None),
            ("clipped", "(trade_country, *) AND (percentage, *)", Some(150)),
        ],
    }
}

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

/// FNV-1a over every tuple's nodes and score bits: the whole ranked answer in
/// one word, so the golden file stays small at k = 100.
fn digest(result: &TopKResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tuple in &result.tuples {
        for node in &tuple.nodes {
            feed(node.doc.index() as u64);
            feed(u64::from(node.node));
        }
        feed(tuple.content_score.to_bits());
        feed(tuple.compactness.to_bits());
        feed(tuple.score.to_bits());
    }
    hash
}

fn render_case(out: &mut String, head: &str, result: &TopKResult, breach: &Option<LimitBreach>) {
    let s = &result.stats;
    write!(
        out,
        "{head} | sorted={} random={} scored={} disconnected={} truncated={} probes={} early={}",
        s.sorted_accesses,
        s.random_accesses,
        s.tuples_scored,
        s.tuples_disconnected,
        s.candidates_truncated,
        s.label_probes,
        s.early_terminated
    )
    .unwrap();
    match breach {
        Some(b) => write!(out, " | breach={}:{}/{}", b.resource, b.spent, b.budget).unwrap(),
        None => out.push_str(" | breach=none"),
    }
    write!(out, " | tuples={} digest={:016x}", result.tuples.len(), digest(result)).unwrap();
    if let Some(best) = result.tuples.first() {
        let nodes: Vec<String> =
            best.nodes.iter().map(|n| format!("{}:{}", n.doc.index(), n.node)).collect();
        write!(out, " | best=[{}] score={:016x}", nodes.join(","), best.score.to_bits()).unwrap();
    }
    out.push('\n');
}

fn render_all() -> String {
    let mut out = String::new();
    // One scratch across every corpus, term count and breach: stale partition
    // state from an earlier search would surface as a counter mismatch.
    let mut scratch = SearchScratch::new();
    for dataset in Dataset::ALL {
        let collection = dataset.generate_small().expect("datagen");
        let engine =
            SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
                .expect("engine build");
        let searcher = TopKSearcher::new(engine.node_index(), engine.graph());
        writeln!(
            out,
            "# {} — {} documents, {} components",
            dataset.name(),
            engine.collection().len(),
            engine.graph().doc_component_count()
        )
        .unwrap();
        let unlimited = SearchLimits::unlimited();
        for (label, text, candidate_limit) in cases(dataset) {
            let terms = term_inputs(&engine, text);
            let materialized = searcher.materialize_terms(&terms);
            for k in [1usize, 10, 100] {
                let mut config = TopKConfig::with_k(k);
                if let Some(limit) = candidate_limit {
                    config.candidate_limit = limit;
                }
                let (cold, breach) = searcher.search(&terms, &config, &unlimited, &mut scratch);
                let (replayed, replayed_breach) =
                    searcher.search_materialized(&materialized, &config, &unlimited, &mut scratch);
                assert_eq!(cold, replayed, "{label} k={k}: materialised lists diverge from cold");
                assert_eq!(breach, replayed_breach);
                let head = format!("{label} k={k} limit={}", config.candidate_limit);
                render_case(&mut out, &head, &cold, &breach);
            }
        }
        // Breach sites: the loop must stop at the same counter values.
        let (_, text, _) = cases(dataset)[1];
        let terms = term_inputs(&engine, text);
        let budgets = [
            ("random<=50", SearchLimits { max_random_accesses: Some(50), ..unlimited.clone() }),
            ("scored<=25", SearchLimits { max_tuples_scored: Some(25), ..unlimited.clone() }),
            ("sorted<=30", SearchLimits { max_sorted_accesses: Some(30), ..unlimited.clone() }),
            ("probes<=200", SearchLimits { max_label_probes: Some(200), ..unlimited.clone() }),
        ];
        for (name, limits) in budgets {
            let (result, breach) =
                searcher.search(&terms, &TopKConfig::with_k(10), &limits, &mut scratch);
            render_case(&mut out, &format!("three-term k=10 budget {name}"), &result, &breach);
        }
    }
    out
}

#[test]
fn join_reproduces_the_recorded_tuples_and_counters() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("topk_stats.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let line = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "top-k tuples or work counters moved (first difference on line {}):\n  golden: {}\n  actual: {}\nfull rendering written to {}",
        line + 1,
        GOLDEN.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
        path.display()
    );
}
