//! Experiment P3 — cost of deriving and aggregating the star schema (Sec. 7
//! steps 1–3 plus the OLAP aggregation the paper delegates to an external
//! tool), as a function of the complete-result size — and experiment P4, the
//! shard-parallel engine build: the same (largest) Factbook-like corpus is
//! indexed sequentially and with a worker pool, so the speedup of the
//! shard → merge lifecycle is measured rather than asserted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use seda_bench::{build_profiles, factbook_engine, query1, render_build_comparison};
use seda_core::{ContextSelections, EngineConfig, SedaEngine};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::{aggregate, AggFn, BuildOptions, CubeQuery, Registry};

fn bench_cube(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube_build");
    group.sample_size(10);

    for &countries in &[30usize, 90, 180] {
        let engine = factbook_engine(countries, 6);
        let collection = engine.collection();
        let query = query1();
        let mut selections = ContextSelections::none();
        for (term, path) in [
            (0usize, "/country/name"),
            (1, "/country/economy/import_partners/item/trade_country"),
            (2, "/country/economy/import_partners/item/percentage"),
        ] {
            if let Some(p) = collection.paths().get_str(collection.symbols(), path) {
                selections.select(term, vec![p]);
            }
        }
        let result =
            engine.reader().complete_results(&query, &selections, &[]).expect("complete results");
        group.bench_with_input(
            BenchmarkId::new("star_schema_build", result.len()),
            &result,
            |b, result| {
                b.iter(|| {
                    engine
                        .build_star_schema(result, &BuildOptions::default())
                        .schema
                        .fact_tables
                        .len()
                })
            },
        );

        let build = engine.build_star_schema(&result, &BuildOptions::default());
        if let Some(fact) = build.schema.fact("import-trade-percentage") {
            group.bench_with_input(
                BenchmarkId::new("cube_aggregate_rows", fact.len()),
                fact,
                |b, fact| {
                    b.iter(|| {
                        aggregate(
                            fact,
                            &CubeQuery::sum(&["year", "import-country"], "import-trade-percentage")
                                .with_agg(AggFn::Avg),
                        )
                        .map(|r| r.len())
                        .unwrap_or(0)
                    })
                },
            );
        }
    }
    group.finish();
}

/// Worker count for the parallel engine-build variant; matches the 4-core CI
/// shape by default, override with `SEDA_BUILD_THREADS`.
fn build_threads() -> usize {
    std::env::var("SEDA_BUILD_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(4)
}

fn bench_engine_build(c: &mut Criterion) {
    let threads = build_threads();

    // The largest generated factbook collection of the P3 sweep, generated
    // once and shared by the profile printout and the measured benchmark.
    let collection =
        factbook::generate(&FactbookConfig::paper_scaled(180, 6)).expect("generate factbook");

    // Print the measured shard/merge split once for the largest corpus.
    let (sequential, parallel) = build_profiles(&collection, threads);
    println!(
        "\n=== Experiment P4 (engine build, {} docs) ===\n{}",
        sequential.documents,
        render_build_comparison(&sequential, &parallel)
    );

    let mut group = c.benchmark_group("engine_build");
    group.sample_size(10);
    for (label, parallelism) in [("sequential", 1usize), ("parallel", threads)] {
        group.bench_with_input(
            BenchmarkId::new(label, collection.len()),
            &collection,
            |b, collection| {
                b.iter(|| {
                    SedaEngine::build(
                        collection.clone(),
                        Registry::factbook_defaults(),
                        EngineConfig { parallelism, ..EngineConfig::default() },
                    )
                    .expect("engine build")
                    .build_profile()
                    .total_secs
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_build, bench_cube);
criterion_main!(benches);
