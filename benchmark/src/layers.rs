//! The traced run: per-layer attribution measured from outside the program.
//!
//! Set-up and every round are replayed stepwise through the program's public
//! step functions, one span around each call, so the children nest inside a
//! root span and a layer's time is its spans' self time.  Counts are summed
//! from the `ExecProfile`s the program returns and repeat exactly for a seed.
//! The same run executes the rounds through `execute_text` with the reader's
//! own tracer on, to report its overhead and to copy the program's span names
//! and times into the trace file.
//!
//! A layer that a workload's rounds never call has no span and reports 0:
//! bypassing is what makes the workload a control for that layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use seda_core::{
    ContextSelections, RequestContext, SedaEngine, SedaReader, SedaRequest, Statement,
};
use seda_datagraph::DataGraph;
use seda_dataguide::DataGuideSet;
use seda_olap::{aggregate, BuildOptions, CubeQuery};
use seda_textindex::{ContextIndex, NodeIndex};
use seda_twigjoin::{evaluate_twig, TwigPattern};
use seda_xmlstore::parse_collection;

use crate::check::{self, Ops};
use crate::json::Json;
use crate::measure::{self, Batch, Inputs, Timed, BATCH_THREADS};
use crate::stats::{fastest, item_minima, largest, median};
use crate::trace::Trace;
use crate::workloads::{Query, Workload};
use crate::xml;

/// Passes over the replayed rounds.  As in the timed run, every round counts
/// with its fastest repeat, and the passes lie apart in time: a pass replays
/// set-up once, then every explore round, then every analyze round, then
/// sends the explore rounds through the facade.
const PASSES: usize = 3;
/// Selective explore rounds replayed, counted and traced; with the broad
/// round they make ten rounds, one in ten broad as in the explore mix.
const LAYER_SELECTIVE: usize = 9;
/// Distinct analyze rounds replayed.
const ANALYZE_REPLAYS: usize = 4;
/// Pairs of a one-thread and a two-thread batch for `core.batch_scaling`.
const SCALING_PAIRS: usize = 4;
/// Samples of the broad query at each of `k = 1` and `k = 100`.
const K_SAMPLES: usize = 20;
/// How long a two-thread measurement of the traced run waits for the second
/// core before it goes ahead without it.
const CORE_PATIENCE: Duration = Duration::from_secs(2);

/// Root span of a stepwise set-up replay.
pub const SETUP_ROOT: &str = "setup";
/// Root span of a stepwise explore round.
pub const EXPLORE_ROOT: &str = "round.explore";
/// Root span of a stepwise analyze round.
pub const ANALYZE_ROOT: &str = "round.analyze";
/// Root span of a round sent through `execute_text` with the reader's tracer
/// on; its children are the program's own spans.
pub const FACADE_ROOT: &str = "round.facade";

/// The span names the program's tracer is expected to emit on the request
/// path; one that never shows up is reported absent, never as an error.
const PROGRAM_SPANS: &[&str] = &[
    "parse",
    "plan",
    "execute",
    "search",
    "context-summary",
    "discover-connections",
    "complete-results",
    "twig-evaluate",
    "derive-star-schema",
    "aggregate",
];

/// What the traced run produced.
pub struct Layers {
    /// Every per-layer metric as `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The spans recorded by the benchmark.
    pub trace: Trace,
    /// Per program span name: how many were copied and their median wall time
    /// in microseconds; names of [`PROGRAM_SPANS`] never seen are `absent`.
    pub program_spans: Json,
}

/// Sums of the counters the program returned over the counted rounds.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sorted_accesses: u64,
    random_accesses: u64,
    tuples_scored: u64,
    tuples_disconnected: u64,
    label_probes: u64,
    truncated_requests: u64,
    multi_term_topk: u64,
    early_terminated: u64,
}

/// Result sizes the stepwise analyze replays saw, summed over one pass.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    twig_matches: u64,
    fact_rows: u64,
}

/// Resolves a request's `WITH n IN /path` refinements to path identifiers.
fn selections_of(engine: &SedaEngine, request: &SedaRequest) -> Option<ContextSelections> {
    let mut selections = ContextSelections::none();
    for (term, paths) in &request.path_selections {
        let resolved: Result<Vec<_>, _> = paths.iter().map(|p| engine.resolve_path(p)).collect();
        selections.select(*term, resolved.ok()?);
    }
    Some(selections)
}

/// Replays one statement stepwise, a span around each public call.
fn replay_statement(
    trace: &mut Trace,
    ops: &mut Ops,
    engine: &SedaEngine,
    reader: &mut SedaReader<'_>,
    text: &str,
    tally: &mut Tally,
) {
    let parsed = trace.span("core.request_parse", || SedaRequest::parse(text));
    let request = match parsed {
        Ok(request) => request,
        Err(err) => return ops.fail(format!("{text}: {err}")),
    };
    let Some(selections) = selections_of(engine, &request) else {
        return ops.fail(format!("{text}: unknown context path"));
    };
    let unlimited = RequestContext::unlimited();
    let search = |trace: &mut Trace, reader: &mut SedaReader<'_>, k: usize| {
        let query = request.query.as_ref()?;
        trace.span("topk.search", || reader.top_k_governed(query, &selections, k, &unlimited)).ok()
    };
    let results = |trace: &mut Trace, reader: &mut SedaReader<'_>| {
        let query = request.query.as_ref()?;
        trace
            .span("core.complete_results", || reader.complete_results(query, &selections, &[]))
            .ok()
    };
    let done = match &request.statement {
        Statement::TopK { k } => search(trace, reader, *k).is_some(),
        Statement::ContextSummary => request.query.as_ref().is_some_and(|query| {
            trace.span("textindex.contexts", || reader.context_summary(query));
            true
        }),
        Statement::ConnectionSummary { k } => {
            search(trace, reader, *k).is_some_and(|(top_k, _)| {
                trace.span("dataguide.connections", || reader.connection_summary(&top_k));
                true
            })
        }
        Statement::CompleteResults => results(trace, reader).is_some(),
        Statement::Twig { path } => TwigPattern::parse(path).is_ok_and(|pattern| {
            let matches =
                trace.span("twigjoin.evaluate", || evaluate_twig(engine.collection(), &pattern));
            tally.twig_matches += matches.len() as u64;
            true
        }),
        Statement::Cube { fact, group_by, agg, measure } => {
            results(trace, reader).is_some_and(|table| {
                let build = trace.span("olap.star_schema", || {
                    engine.build_star_schema(&table, &BuildOptions::default())
                });
                let group_by: Vec<&str> = group_by.iter().map(String::as_str).collect();
                let measure = measure.as_deref().unwrap_or(fact.as_str());
                let query = CubeQuery::sum(&group_by, measure).with_agg(*agg);
                build.schema.fact(fact).is_some_and(|table| {
                    tally.fact_rows += table.len() as u64;
                    trace.span("olap.aggregate", || aggregate(table, &query)).is_ok()
                })
            })
        }
    };
    ops.check(done, || format!("stepwise replay failed for {text}"));
}

/// Replays `statements` as one round under a root span named `root`.
fn replay_round(
    trace: &mut Trace,
    ops: &mut Ops,
    engine: &SedaEngine,
    reader: &mut SedaReader<'_>,
    root: &str,
    statements: &[String],
    tally: &mut Tally,
) {
    let root = trace.enter_round(root);
    for text in statements {
        replay_statement(trace, ops, engine, reader, text, tally);
    }
    trace.exit(root);
}

/// Replays set-up stepwise once: parse, the four substrate builds, the audit.
/// Returns `(cross_edges, guides)`.
fn replay_setup(
    trace: &mut Trace,
    ops: &mut Ops,
    inputs: &Inputs,
    engine: &SedaEngine,
) -> (u64, u64) {
    let config = engine.config();
    let root = trace.enter_round(SETUP_ROOT);
    let parsed = trace.span("xmlstore.parse", || parse_collection(xml::as_pairs(&inputs.sources)));
    let Ok(collection) = parsed else {
        trace.exit(root);
        ops.fail("stepwise set-up: the generated XML did not parse".to_string());
        return (0, 0);
    };
    let graph = trace.span("datagraph.build", || DataGraph::build(&collection, &config.graph));
    let node_index = trace.span("textindex.node_index_build", || NodeIndex::build(&collection));
    let context_index = trace.span("textindex.context_index_build", || {
        ContextIndex::build(&collection, config.count_storage)
    });
    let guides = trace
        .span("dataguide.build", || DataGuideSet::build(&collection, config.dataguide_threshold));
    let audit = trace.span("core.verify", || engine.verify());
    trace.exit(root);
    ops.check(audit.is_ok() && guides.is_ok(), || "stepwise set-up failed".to_string());
    let shape = (graph.cross_edge_count() as u64, guides.map_or(0, |g| g.len() as u64));
    // The substrates are dropped here, outside the root span.
    drop((graph, node_index, context_index, collection));
    shape
}

/// What the facade rounds measured: per round, in execution order, the wall
/// time with the reader's tracer off and on, and the counters the program
/// returned summed over the first pass.
#[derive(Default)]
struct Facade {
    off_ms: Vec<f64>,
    on_ms: Vec<f64>,
    counts: Counts,
    /// Wall times in microseconds of the program's own spans, by name.
    program: BTreeMap<String, Vec<f64>>,
}

/// Sends `queries` through `execute_text`, each once with the reader's tracer
/// off and once with it on (alternating which goes first).  The traced
/// responses' spans are copied into `trace` under a [`FACADE_ROOT`] span, and
/// their counters are summed when `count` is set.
fn facade_rounds(
    trace: &mut Trace,
    ops: &mut Ops,
    engine: &SedaEngine,
    queries: &[Query],
    count: bool,
    facade: &mut Facade,
) {
    let mut plain = engine.reader();
    let mut traced = engine.reader();
    traced.set_tracing(true);
    let Facade { off_ms, on_ms, counts, program } = facade;
    for (i, query) in queries.iter().enumerate() {
        let statements = query.explore_round();
        let mut run_plain = |off_ms: &mut Vec<f64>| {
            let (ms, outcomes) = measure::text_round(&mut plain, &statements);
            off_ms.push(ms);
            outcomes
        };
        let mut run_traced = |trace: &mut Trace, on_ms: &mut Vec<f64>| {
            let root = trace.enter_round(FACADE_ROOT);
            let (ms, outcomes) = measure::text_round(&mut traced, &statements);
            trace.exit(root);
            on_ms.push(ms);
            (root, outcomes)
        };
        let (root, outcomes) = if i % 2 == 0 {
            drop(run_plain(off_ms));
            run_traced(trace, on_ms)
        } else {
            let traced = run_traced(trace, on_ms);
            drop(run_plain(off_ms));
            traced
        };
        // Copy the program's spans under the facade root, request after
        // request: a span's start is its offset from its request's start.
        let mut request_start = trace.spans()[root].start_us;
        for (text, outcome) in statements.iter().zip(&outcomes) {
            let Some(response) = check::check_response(ops, text, query.may_truncate, outcome)
            else {
                continue;
            };
            let profile = &response.profile;
            if count {
                counts.sorted_accesses += profile.sorted_accesses as u64;
                counts.random_accesses += profile.random_accesses as u64;
                counts.tuples_scored += profile.tuples_scored as u64;
                counts.tuples_disconnected += profile.tuples_disconnected as u64;
                counts.label_probes += profile.label_probes;
                counts.truncated_requests += u64::from(profile.candidates_truncated > 0);
                if text.starts_with("TOPK") && query.text.contains(" AND ") {
                    counts.multi_term_topk += 1;
                    counts.early_terminated += u64::from(profile.early_terminated);
                }
            }
            let mut parents: Vec<usize> = vec![root];
            for span in &profile.spans {
                parents.truncate(span.depth + 1);
                let start = request_start + span.start_secs * 1e6;
                let index = trace.spans().len();
                trace.record(
                    &format!("program:{}", span.name),
                    start,
                    start + span.wall_secs * 1e6,
                    parents.last().copied(),
                );
                parents.push(index);
                program.entry(span.name.clone()).or_default().push(span.wall_secs * 1e6);
            }
            request_start += profile.total_secs() * 1e6;
        }
    }
}

/// Times the broad query's `TOPK` at `k = 1` and `k = 100`, [`K_SAMPLES`]
/// times each and in turns, so that both see the same states of the machine;
/// returns the fastest of each, in milliseconds.
fn topk_at_1_and_100(ops: &mut Ops, reader: &mut SedaReader<'_>, query: &Query) -> (f64, f64) {
    let texts = [1, 100].map(|k| format!("TOPK {k} FOR {}", query.text));
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..K_SAMPLES {
        for (text, samples) in texts.iter().zip(&mut samples) {
            let (ms, outcomes) = measure::text_round(reader, std::slice::from_ref(text));
            samples.push(ms);
            check::check_response(ops, text, query.may_truncate, &outcomes[0]);
        }
    }
    (fastest(&samples[0]), fastest(&samples[1]))
}

/// Requests per second of the batch on two threads over requests per second
/// on one, the fastest of [`SCALING_PAIRS`] each.  The two runs of a pair
/// follow each other, the two-thread one first and straight after the second
/// core was woken.
fn batch_scaling(ops: &mut Ops, engine: &SedaEngine, batch: &Batch) -> f64 {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..SCALING_PAIRS {
        measure::wake_second_core(CORE_PATIENCE);
        two.push(batch.run(engine, BATCH_THREADS, ops));
        one.push(batch.run(engine, 1, ops));
    }
    largest(&two) / largest(&one)
}

/// Median wall time in milliseconds of `SedaReader::prepare` over the
/// statements of `queries`.
fn prepare_ms(ops: &mut Ops, reader: &SedaReader<'_>, queries: &[Query]) -> f64 {
    let texts: Vec<String> = queries.iter().flat_map(Query::explore_round).collect();
    let samples: Vec<f64> = check::parse_requests(ops, &texts)
        .iter()
        .map(|request| {
            let start = Instant::now();
            let prepared = reader.prepare(request);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            ops.check(prepared.is_ok(), || format!("prepare failed for {}", request.render()));
            ms
        })
        .collect();
    median(&samples)
}

/// Fastest of `reps` engine builds at each parallelism, in seconds: the
/// two-thread build straight after the second core was woken, the sequential
/// one after it.  Returns `(sequential_s, two_thread_s, sequential_engine)`.
fn build_pair(ops: &mut Ops, inputs: &Inputs, reps: usize) -> (f64, f64, Option<SedaEngine>) {
    let (mut one, mut two, mut sequential) = (Vec::new(), Vec::new(), None);
    for _ in 0..reps {
        drop(sequential.take());
        measure::wake_second_core(CORE_PATIENCE);
        for parallelism in [2, 1] {
            let start = Instant::now();
            let built = inputs.build(parallelism);
            let secs = start.elapsed().as_secs_f64();
            ops.check(built.is_ok(), || format!("engine build at parallelism {parallelism}"));
            if parallelism == 1 {
                one.push(secs);
                sequential = built.ok();
            } else {
                two.push(secs);
            }
        }
    }
    (fastest(&one), fastest(&two), sequential)
}

/// For every root span named `root`, in entry order: the self time in
/// milliseconds of its child spans, summed by span name.
fn rounds_by_layer(trace: &Trace, root: &str) -> Vec<BTreeMap<String, f64>> {
    let spans = trace.spans();
    let mut slot_of_root = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        if span.parent.is_none() && span.name == root {
            slot_of_root.insert(index, slot_of_root.len());
        }
    }
    let mut rounds = vec![BTreeMap::new(); slot_of_root.len()];
    for (span, self_us) in spans.iter().zip(trace.self_times_us()) {
        if let Some(slot) = span.parent.and_then(|parent| slot_of_root.get(&parent)) {
            *rounds[*slot].entry(span.name.clone()).or_insert(0.0) += self_us / 1e3;
        }
    }
    rounds
}

/// A layer's time per round in milliseconds: the self time of its spans
/// summed over a round, the fastest repeat of each of the `items` distinct
/// rounds, the median across them.  `None` sums every layer (the stepwise
/// time of the round).  A layer without spans reads 0.
fn layer_ms(rounds: &[BTreeMap<String, f64>], items: usize, layer: Option<&str>) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|round| match layer {
            Some(layer) => round.get(layer).copied().unwrap_or(0.0),
            None => round.values().sum(),
        })
        .collect();
    median(&item_minima(&per_round, items.max(1)))
}

/// Runs the traced phases.  `timed` holds the same process's untraced
/// end-to-end samples, the base of the ratios.
pub fn run_layers(inputs: &Inputs, engine: &SedaEngine, timed: &Timed, ops: &mut Ops) -> Layers {
    let mut trace = Trace::new();
    let requests = &inputs.requests;
    let queries: Vec<Query> =
        requests.selective.iter().take(LAYER_SELECTIVE).chain([&requests.broad]).cloned().collect();
    let analyze = &requests.analyze[..ANALYZE_REPLAYS.min(requests.analyze.len())];

    let mut reader = engine.reader();
    let mut facade = Facade::default();
    let mut shape = (0, 0);
    // Result sizes are tallied over the first pass only.
    let mut tallies = [Tally::default(); PASSES];
    for (pass, tally) in tallies.iter_mut().enumerate() {
        shape = replay_setup(&mut trace, ops, inputs, engine);
        for query in &queries {
            let statements = query.explore_round();
            replay_round(&mut trace, ops, engine, &mut reader, EXPLORE_ROOT, &statements, tally);
        }
        for statements in analyze {
            replay_round(&mut trace, ops, engine, &mut reader, ANALYZE_ROOT, statements, tally);
        }
        facade_rounds(&mut trace, ops, engine, &queries, pass == 0, &mut facade);
    }
    let (cross_edges, guides) = shape;
    let Facade { off_ms, on_ms, counts, program } = facade;

    let (k1_ms, k100_ms) = topk_at_1_and_100(ops, &mut reader, &requests.broad);
    let prepare_ms = prepare_ms(ops, &reader, &queries);
    let batch_scaling =
        Batch::parse(requests, ops).map_or(f64::NAN, |batch| batch_scaling(ops, engine, &batch));
    let (sequential_s, two_thread_s, sequential) = build_pair(ops, inputs, 2);
    if inputs.workload == Workload::RecipemlIngest {
        if let Some(sequential) = &sequential {
            check::check_parallel_build_equivalence(ops, engine, sequential, requests);
        }
    }
    drop(sequential);

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Each round ran once traced and once untraced, back to back: the ratio
    // of a pair cancels what the round's query costs and the machine's state.
    let paired_overhead: Vec<f64> =
        on_ms.iter().zip(&off_ms).map(|(on, off)| ratio(*on, *off)).collect();
    let setup = rounds_by_layer(&trace, SETUP_ROOT);
    let explore = rounds_by_layer(&trace, EXPLORE_ROOT);
    let analyzed = rounds_by_layer(&trace, ANALYZE_ROOT);
    let setup_ms = |layer: &str| layer_ms(&setup, 1, Some(layer));
    let explore_ms = |layer: &str| layer_ms(&explore, queries.len(), Some(layer));
    let analyze_ms = |layer: &str| layer_ms(&analyzed, analyze.len(), Some(layer));
    let facade_ms = median(&item_minima(&off_ms, queries.len()));
    let stepwise_ms = layer_ms(&explore, queries.len(), None);
    let per_round = |total: u64| total as f64 / queries.len() as f64;
    let per_analyze_round = |total: u64| total as f64 / analyze.len().max(1) as f64;
    let profile = engine.build_profile();

    let metrics = vec![
        ("xmlstore.parse_ms", setup_ms("xmlstore.parse"), "ms"),
        ("xmlstore.xml_mb", xml::total_bytes(&inputs.sources) as f64 / 1e6, "MB"),
        ("textindex.node_index_build_ms", setup_ms("textindex.node_index_build"), "ms"),
        ("textindex.context_index_build_ms", setup_ms("textindex.context_index_build"), "ms"),
        ("textindex.sorted_accesses", per_round(counts.sorted_accesses), "count"),
        ("textindex.contexts_us", explore_ms("textindex.contexts") * 1e3, "us"),
        ("datagraph.build_ms", setup_ms("datagraph.build"), "ms"),
        ("datagraph.cross_edges", cross_edges as f64, "count"),
        ("datagraph.label_mb", profile.label_bytes as f64 / 1e6, "MB"),
        ("datagraph.label_probes", per_round(counts.label_probes), "count"),
        ("dataguide.build_ms", setup_ms("dataguide.build"), "ms"),
        ("dataguide.guides", guides as f64, "count"),
        ("dataguide.connections_ms", explore_ms("dataguide.connections"), "ms"),
        ("topk.search_ms", explore_ms("topk.search"), "ms"),
        ("topk.random_accesses", per_round(counts.random_accesses), "count"),
        ("topk.tuples_scored", per_round(counts.tuples_scored), "count"),
        (
            "topk.disconnected_ratio",
            ratio(counts.tuples_disconnected as f64, counts.tuples_scored as f64),
            "ratio",
        ),
        (
            "topk.early_termination_ratio",
            ratio(counts.early_terminated as f64, counts.multi_term_topk as f64),
            "ratio",
        ),
        ("topk.k1_ms", k1_ms, "ms"),
        ("topk.k100_ms", k100_ms, "ms"),
        ("topk.truncated_requests", counts.truncated_requests as f64, "count"),
        ("topk.analyze_search_ms", analyze_ms("topk.search"), "ms"),
        ("twigjoin.evaluate_ms", analyze_ms("twigjoin.evaluate"), "ms"),
        ("twigjoin.matches", per_analyze_round(tallies[0].twig_matches), "count"),
        ("olap.star_schema_ms", analyze_ms("olap.star_schema"), "ms"),
        ("olap.fact_rows", per_analyze_round(tallies[0].fact_rows), "count"),
        ("olap.aggregate_ms", analyze_ms("olap.aggregate"), "ms"),
        ("core.complete_results_ms", analyze_ms("core.complete_results"), "ms"),
        ("core.request_parse_us", explore_ms("core.request_parse") * 1e3, "us"),
        ("core.prepare_ms", prepare_ms, "ms"),
        ("core.facade_overhead_ms", facade_ms - stepwise_ms, "ms"),
        (
            "core.prepared_speedup",
            ratio(timed.explore_median_ms(), timed.prepared_median_ms()),
            "ratio",
        ),
        ("core.verify_ms", setup_ms("core.verify"), "ms"),
        ("core.build_merge_ms", profile.merge_secs() * 1e3, "ms"),
        ("core.build_parallel_speedup", ratio(sequential_s, two_thread_s), "ratio"),
        ("core.batch_scaling", batch_scaling, "ratio"),
        ("core.tracing_overhead_ratio", median(&paired_overhead), "ratio"),
        ("trace.setup_coverage", trace.coverage(SETUP_ROOT), "ratio"),
        ("trace.explore_coverage", trace.coverage(EXPLORE_ROOT), "ratio"),
        ("trace.analyze_coverage", trace.coverage(ANALYZE_ROOT), "ratio"),
    ];

    let mut seen: Vec<(String, Json)> = program
        .iter()
        .map(|(name, walls)| {
            let stats = Json::obj([
                ("count", Json::Int(walls.len() as u64)),
                ("median_us", Json::Num(median(walls))),
            ]);
            (name.clone(), stats)
        })
        .collect();
    let absent: Vec<Json> = PROGRAM_SPANS
        .iter()
        .filter(|name| !program.contains_key(**name))
        .map(|name| Json::str(*name))
        .collect();
    seen.push(("absent".to_string(), Json::Arr(absent)));
    Layers { metrics, trace, program_spans: Json::Obj(seen) }
}
