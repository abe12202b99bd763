//! Experiment F3 — the worked Query 1 example of Figures 1–3: from keyword
//! query terms to the import-trade-percentage fact table with the
//! automatically added year key column.
//!
//! Prints the reproduced Figure 3(c) fact table once, then benchmarks the
//! end-to-end pipeline (complete results + star schema) and the interactive
//! front half (top-k + summaries).

use criterion::{criterion_group, criterion_main, Criterion};

use seda_bench::{factbook_engine, query1, render_query1_fact_table, run_query1_cube};
use seda_core::{ContextSelections, RequestContext, Session};

fn bench_query1(c: &mut Criterion) {
    let engine = factbook_engine(60, 6);
    let build = run_query1_cube(&engine);
    println!("\n=== Experiment F3 (Query 1) ===");
    println!("{}", render_query1_fact_table(&build, 12));
    println!(
        "matched dimensions: {:?}\nmatched facts: {:?}\n",
        build.matching.dimensions, build.matching.facts
    );

    let mut group = c.benchmark_group("fig3_query1");
    group.sample_size(10);
    group.bench_function("topk_and_summaries", |b| {
        b.iter(|| {
            let mut session = Session::new(&engine);
            session.set_k(10);
            let top_len = session.submit(query1()).expect("submit query 1").tuples.len();
            (top_len, session.connection_summary().map(|s| s.len()))
        })
    });
    group.bench_function("complete_results_and_cube", |b| {
        b.iter(|| run_query1_cube(&engine).schema.fact_tables.len())
    });
    group.bench_function("topk_only", |b| {
        let mut reader = engine.reader();
        let ctx = RequestContext::unlimited();
        b.iter(|| {
            let (result, _) = reader
                .top_k_governed(&query1(), &ContextSelections::none(), 10, &ctx)
                .expect("ungoverned top-k");
            result.tuples.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query1);
criterion_main!(benches);
