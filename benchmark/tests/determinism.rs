//! The run seed fixes the inputs: one seed yields a byte-identical request
//! list and exactly equal count metrics across two runs; another seed changes
//! the requests and still runs without a failed operation.
//!
//! Runs at `--quick` scale (a tenth of paper scale) so the suite stays short.

use seda_benchmark::report::{execute, Args};
use seda_benchmark::workloads::{Scale, Workload};

fn traced(workload: Workload, seed: u64) -> Args {
    Args { workload, seed, seconds: 0.2, trace: true, quick: true }
}

/// `(name, value)` of every metric whose unit is `count`.
fn counts(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let executed = execute(&traced(workload, seed));
    assert_eq!(executed.ops.failed, 0, "{}: {:?}", workload.name(), executed.ops.failures);
    let layers = executed.layers.expect("a traced run reports per-layer metrics");
    layers
        .metrics
        .iter()
        .filter(|(_, _, unit)| *unit == "count")
        .map(|&(name, value, _)| (name, value))
        .collect()
}

#[test]
fn one_seed_one_request_list() {
    for workload in Workload::ALL {
        let first = workload.requests(7, Scale::Paper).render();
        assert_eq!(first, workload.requests(7, Scale::Paper).render());
        assert_ne!(first, workload.requests(8, Scale::Paper).render(), "{}", workload.name());
        // Three statements per explore query (the selective ones and the
        // broad one), then the analyze statements.
        let requests = workload.requests(7, Scale::Paper);
        assert_eq!(
            first.lines().count(),
            (requests.selective.len() + 1) * 3
                + requests.analyze.iter().map(Vec::len).sum::<usize>()
        );
    }
}

#[test]
fn one_seed_one_corpus() {
    use seda_benchmark::xml::serialize;
    for workload in Workload::ALL {
        let first = serialize(&workload.generate(7, Scale::Quick));
        assert_eq!(first, serialize(&workload.generate(7, Scale::Quick)));
        // The seed reaches the generator: RecipeML and Google Base only draw
        // quantities and prices from it, the other two whole sections.
        assert_ne!(first, serialize(&workload.generate(8, Scale::Quick)), "{}", workload.name());
    }
}

#[test]
fn count_metrics_repeat_exactly_and_a_second_seed_runs_clean() {
    for workload in Workload::ALL {
        let first = counts(workload, 7);
        assert!(first.len() >= 7, "{first:?}");
        assert_eq!(first, counts(workload, 7), "{}", workload.name());
        // A second seed: other requests, still zero failed operations
        // (asserted inside `counts`).
        counts(workload, 8);
    }
}
