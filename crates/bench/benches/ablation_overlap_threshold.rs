//! Experiments A1 and A2 — ablation of the dataguide overlap threshold.
//!
//! The paper fixes the threshold at 40% and reports (a) reduction factors
//! between 3× and 100× depending on the data set and (b) that higher
//! thresholds produce fewer false-positive connections.  This bench sweeps
//! the threshold, prints both curves, and benchmarks the merge at selected
//! thresholds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use seda_bench::scaled_collection;
use seda_core::{ContextSelections, EngineConfig, RequestContext, SedaEngine};
use seda_datagen::Dataset;
use seda_dataguide::{discover_connections, false_positive_connections, guide_links, DataGuideSet};
use seda_olap::Registry;

fn sweep_thresholds() {
    println!("\n=== Experiment A1: dataguide reduction factor vs overlap threshold ===");
    println!(
        "{:<25} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "data set", "#docs", "0.0", "0.2", "0.4", "0.6", "0.8"
    );
    for dataset in Dataset::ALL {
        let collection = scaled_collection(dataset, 0.05);
        let mut cells = Vec::new();
        for threshold in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let guides = DataGuideSet::build(&collection, threshold).unwrap();
            cells.push(format!("{:.1}x", collection.len() as f64 / guides.len() as f64));
        }
        println!(
            "{:<25} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}",
            dataset.name(),
            collection.len(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
}

fn false_positive_sweep() {
    println!("\n=== Experiment A2: false-positive connections vs overlap threshold ===");
    let collection = scaled_collection(Dataset::WorldFactbook, 0.08);
    let engine = SedaEngine::build(
        collection.clone(),
        Registry::factbook_defaults(),
        EngineConfig::default(),
    )
    .unwrap();
    let query = seda_bench::query1();
    let (topk, _) = engine
        .reader()
        .top_k_governed(&query, &ContextSelections::none(), 20, &RequestContext::unlimited())
        .expect("ungoverned top-k");
    let instantiated = discover_connections(&collection, engine.graph(), &topk.node_tuples(), 12);
    // Candidate pairs: every pair of contexts of the query's context buckets.
    let summary = engine.context_summary(&query);
    let mut pairs = Vec::new();
    for a in summary.buckets[1].paths() {
        for b in summary.buckets[2].paths() {
            pairs.push((a, b));
        }
    }
    println!(
        "{:>9} {:>12} {:>18} {:>16}",
        "threshold", "#dataguides", "guide connections", "false positives"
    );
    for threshold in [0.1, 0.4, 0.7, 1.0] {
        let guides = DataGuideSet::build(&collection, threshold).unwrap();
        let links = guide_links(&collection, engine.graph(), &guides);
        let (fp, total) =
            false_positive_connections(&collection, &guides, &links, &instantiated, &pairs);
        println!("{threshold:>9.1} {:>12} {total:>18} {fp:>16}", guides.len());
    }
    println!();
}

fn bench_threshold(c: &mut Criterion) {
    sweep_thresholds();
    false_positive_sweep();

    let collection = scaled_collection(Dataset::WorldFactbook, 0.05);
    let mut group = c.benchmark_group("ablation_overlap_threshold");
    group.sample_size(10);
    for threshold in [0.2f64, 0.4, 0.8] {
        group.bench_with_input(
            BenchmarkId::new("factbook_merge", format!("{threshold:.1}")),
            &threshold,
            |b, &threshold| b.iter(|| DataGuideSet::build(&collection, threshold).unwrap().len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_threshold);
criterion_main!(benches);
