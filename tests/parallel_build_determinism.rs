//! Determinism of the shard-parallel engine build: building the same
//! collection twice with `parallelism > 1` — and once on one thread, through
//! the same orchestration — must yield identical substrates, identical guide
//! links, identical dataguide statistics and identical query answers,
//! regardless of worker scheduling.
//!
//! `NodeIndex` equality is derived `PartialEq` over every field, so it covers
//! the whole frozen read model — the per-posting path array and the
//! path-partitioned match-all runs included.

use seda_core::metrics::names;
use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine, SedaQuery};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::Registry;

fn build(parallelism: usize) -> SedaEngine {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    SedaEngine::build(
        collection,
        Registry::factbook_defaults(),
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
    .unwrap()
}

#[test]
fn parallel_builds_are_identical_across_runs_and_to_sequential() {
    let sequential = build(1);
    let first = build(4);
    let second = build(4);

    for parallel in [&first, &second] {
        assert_eq!(parallel.node_index(), sequential.node_index());
        assert_eq!(parallel.context_index(), sequential.context_index());
        assert_eq!(parallel.graph(), sequential.graph());
        assert_eq!(parallel.guides(), sequential.guides());
        assert_eq!(parallel.guide_links(), sequential.guide_links());
        assert_eq!(parallel.dataguide_stats(), sequential.dataguide_stats());
    }

    // Guide links are part of the engine's public output; their order must be
    // stable, not merely their content.
    assert_eq!(first.guide_links(), second.guide_links());
}

#[test]
fn parallel_query_answers_match_sequential_byte_for_byte() {
    let sequential = build(1);
    let parallel = build(3);

    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();

    let seq_summary = sequential.context_summary(&query);
    let par_summary = parallel.context_summary(&query);
    assert_eq!(seq_summary.buckets.len(), par_summary.buckets.len());
    for (a, b) in seq_summary.buckets.iter().zip(par_summary.buckets.iter()) {
        assert_eq!(a.entries, b.entries);
    }

    let seq_topk = sequential
        .reader()
        .top_k_governed(&query, &ContextSelections::none(), 10, &RequestContext::unlimited())
        .unwrap()
        .0;
    let par_topk = parallel
        .reader()
        .top_k_governed(&query, &ContextSelections::none(), 10, &RequestContext::unlimited())
        .unwrap()
        .0;
    assert_eq!(seq_topk.tuples.len(), par_topk.tuples.len());
    for (a, b) in seq_topk.tuples.iter().zip(par_topk.tuples.iter()) {
        assert_eq!(a.nodes, b.nodes);
        assert!((a.score - b.score).abs() < 1e-12);
    }

    let seq_complete =
        sequential.reader().complete_results(&query, &ContextSelections::none(), &[]).unwrap();
    let par_complete =
        parallel.reader().complete_results(&query, &ContextSelections::none(), &[]).unwrap();
    assert_eq!(seq_complete, par_complete);
}

#[test]
fn build_profile_is_surfaced_for_parallel_builds() {
    let engine = build(4);
    let profile = engine.build_profile();
    assert_eq!(profile.parallelism, 4);
    assert_eq!(profile.documents, engine.collection().len());
    assert!(profile.shard_secs() > 0.0);
    assert!(profile.total_secs >= profile.shard_secs());
    // The read model's bytes are a function of the collection, not of how it
    // was built, and reach the registry and the rendered table.
    assert!(profile.posting_bytes > 0);
    assert_eq!(profile.posting_bytes, build(1).build_profile().posting_bytes);
    assert_eq!(engine.metrics().gauge(names::POSTING_BYTES).get(), profile.posting_bytes as u64);
    assert!(profile.render().contains("posting tables"));
}
