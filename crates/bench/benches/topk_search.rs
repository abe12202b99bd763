//! Experiment P1 — top-k search latency and early termination (Sec. 4).
//!
//! The paper claims SEDA "first quickly retrieves top-k tuples" before any
//! expensive complete-result computation.  This bench measures the
//! Threshold-Algorithm searcher for k ∈ {1, 10, 100} against the exhaustive
//! baseline over the googlebase / mondial / factbook workloads (the same
//! workloads `bench_topk` snapshots into `BENCH_topk.json`), plus a
//! factbook scaling series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use seda_bench::{factbook_engine, query1, topk_workloads};
use seda_core::{ContextSelections, RequestContext};
use seda_topk::{SearchLimits, SearchScratch, SearchStrategy, TermInput, TopKConfig, TopKSearcher};

/// Result size of the ungoverned join search through a reused scratch.
fn ta_len(
    searcher: &TopKSearcher<'_>,
    terms: &[TermInput],
    config: &TopKConfig,
    scratch: &mut SearchScratch,
) -> usize {
    let limits = SearchLimits::unlimited();
    searcher.search(terms, config, &limits, scratch, None, SearchStrategy::Join).0.tuples.len()
}

/// The three standard workloads, searched through a reused scratch (the
/// steady-state serving configuration).
fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_search");
    group.sample_size(10);

    for workload in topk_workloads() {
        let searcher = TopKSearcher::new(
            workload.engine.collection(),
            workload.engine.node_index(),
            workload.engine.graph(),
        );
        let terms = workload.term_inputs();
        let mut scratch = SearchScratch::new();
        for &k in &[1usize, 10, 100] {
            group.bench_with_input(
                BenchmarkId::new(format!("ta_{}", workload.name), k),
                &k,
                |b, &k| b.iter(|| ta_len(&searcher, &terms, &TopKConfig::with_k(k), &mut scratch)),
            );
        }
        group.bench_function(format!("naive_{}/10", workload.name), |b| {
            b.iter(|| {
                searcher.search_naive(&terms, &TopKConfig::with_k(10), &mut scratch).tuples.len()
            })
        });
    }
    group.finish();
}

/// Factbook scaling series through a reader's typed step (one reused
/// per-reader scratch) and a scoring ablation.
fn bench_factbook_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_search_factbook_scaling");
    group.sample_size(10);

    for &countries in &[20usize, 60, 120] {
        let engine = factbook_engine(countries, 3);
        let query = query1();
        let selections = ContextSelections::none();
        let ctx = RequestContext::unlimited();
        let mut reader = engine.reader();
        for &k in &[1usize, 10, 100] {
            group.bench_with_input(
                BenchmarkId::new(format!("ta_{countries}countries"), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        let (result, _) = reader
                            .top_k_governed(&query, &selections, k, &ctx)
                            .expect("ungoverned top-k");
                        result.tuples.len()
                    })
                },
            );
        }
        // Naive baseline at k = 10 for comparison (who wins and by how much).
        let collection = engine.collection();
        let searcher = TopKSearcher::new(collection, engine.node_index(), engine.graph());
        let terms: Vec<TermInput> = query
            .terms
            .iter()
            .map(|t| match t.context.allowed_paths(collection) {
                Some(paths) => TermInput::with_paths(t.search.clone(), paths),
                None => TermInput::new(t.search.clone()),
            })
            .collect();
        let mut scratch = SearchScratch::new();
        group.bench_function(format!("naive_{countries}countries/10"), |b| {
            b.iter(|| {
                searcher.search_naive(&terms, &TopKConfig::with_k(10), &mut scratch).tuples.len()
            })
        });

        // Scoring ablation: content-only (structure weight 0) vs combined.
        let mut content_only = TopKConfig::with_k(10);
        content_only.structure_weight = 0.0;
        group.bench_function(format!("ta_content_only_{countries}countries/10"), |b| {
            b.iter(|| ta_len(&searcher, &terms, &content_only, &mut scratch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workloads, bench_factbook_scaling);
criterion_main!(benches);
