//! The timed run: set-up, explore rounds, prepared rounds, analyze rounds and
//! batches, measured end to end with the program's tracing off.
//!
//! Load shape: a closed loop with one client (an analyst waits for each
//! answer before sending the next request); only the batches use two reader
//! threads, through the program's own `execute_batch`.
//!
//! The machine is shared.  For seconds to minutes at a time other tenants
//! slow memory-bound code to between a half and three quarters of its speed,
//! and on a bad day that is the state of half of all moments.  The noise only
//! ever adds time, so every work item — an engine build, a distinct round,
//! the batch — counts with the fastest of its repeats, and medians and
//! percentiles are taken across the distinct items (`stats::item_minima`).
//! That works when the repeats of one item lie seconds apart, so the run is a
//! sequence of identical *laps*: each lap builds an engine once and sends
//! every distinct request once.  A run makes as many laps as fit in
//! `--seconds`, so a slow spell costs repeats, not time.  The host also lends
//! the second core out while one thread works; [`wake_second_core`] deals
//! with that.

use std::hint::black_box;
use std::time::{Duration, Instant};

use seda_core::{
    EngineConfig, PreparedStatement, SedaEngine, SedaError, SedaReader, SedaRequest, SedaResponse,
};
use seda_olap::Registry;
use seda_xmlstore::Collection;

use crate::check::{self, Ops};
use crate::stats::{fastest, item_minima, largest, median, weighted_percentile};
use crate::workloads::{Query, Requests, Scale, Workload, BROAD_SHARE};
use crate::xml::{self, XmlSource};

/// Fewest laps of a full run: every work item has at least this many repeats.
pub const MIN_LAPS: usize = 3;
/// Broad explore rounds per lap, spread evenly among the selective ones.
pub const BROAD_PER_LAP: usize = 2;
/// Selective explore rounds whose requests (three each) form the batch.
pub const BATCH_ROUNDS: usize = 10;
/// Reader threads of a batch (the machine has two cores).
pub const BATCH_THREADS: usize = 2;
/// Batches sent back to back each time the second core is awake.
pub const BATCHES_PER_WAKE: usize = 2;
/// Fewest batches of a run.
pub const MIN_BATCHES: usize = 4;
/// How long a lap waits for the second core before it goes on without the
/// measurements that need it.
const LAP_PATIENCE: Duration = Duration::from_millis(300);
/// How long the end of the run waits for the second core when the laps took
/// fewer than [`MIN_BATCHES`] batches.
const FINAL_PATIENCE: Duration = Duration::from_secs(3);

/// The generated inputs of one run: XML text and request text.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The generated corpus as XML text — all the program ever sees of it.
    pub sources: Vec<XmlSource>,
    /// The request text.
    pub requests: Requests,
    /// The generated collection, kept only to check the XML round trip.
    generated: Collection,
}

impl Inputs {
    /// Generates corpus and requests from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Self {
        let generated = workload.generate(seed, scale);
        let sources = xml::serialize(&generated);
        Inputs { workload, sources, requests: workload.requests(seed, scale), generated }
    }

    /// Builds the engine from the XML text.
    pub fn build(&self, parallelism: usize) -> Result<SedaEngine, SedaError> {
        SedaEngine::build_from_sources(
            xml::as_pairs(&self.sources),
            Registry::factbook_defaults(),
            EngineConfig { parallelism, ..EngineConfig::default() },
        )
    }
}

/// How long the laps run and the fewest of them.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Laps repeat until this many seconds have passed.
    pub seconds: f64,
    /// Fewest laps: [`MIN_LAPS`] in a full run.
    pub min_laps: usize,
}

/// Samples of the timed phases.  Every list is lap after lap: sample `i` of a
/// list over `n` distinct items is a repeat of item `i % n`.
#[derive(Debug, Default)]
pub struct Timed {
    /// Laps completed.
    pub laps: usize,
    /// Seconds per engine build: one per lap, on `recipeml-ingest` only in
    /// laps in which the second core woke.  Only the first engine is kept.
    pub setup_s: Vec<f64>,
    /// Milliseconds per selective explore round, over the selective queries.
    pub selective_ms: Vec<f64>,
    /// Milliseconds per broad explore round, [`BROAD_PER_LAP`] per lap.
    pub broad_ms: Vec<f64>,
    /// Milliseconds per prepared explore round, over the selective queries.
    pub prepared_ms: Vec<f64>,
    /// Milliseconds per analyze round, over the analyze rounds.
    pub analyze_ms: Vec<f64>,
    /// Requests per second of each batch: [`BATCHES_PER_WAKE`] in every lap
    /// in which the second core woke, at least [`MIN_BATCHES`] in all.
    pub batch_rps: Vec<f64>,
    /// `VmHWM` in MB at the end of the first lap.
    pub peak_rss_mb: f64,
}

impl Timed {
    fn per_lap(&self, samples: &[f64]) -> usize {
        (samples.len() / self.laps.max(1)).max(1)
    }

    /// The explore traffic mix as `(milliseconds, weight)`: the fastest
    /// repeat of each selective round, sharing `1 - BROAD_SHARE` equally, and
    /// the fastest broad round with [`BROAD_SHARE`].
    pub fn explore_mix(&self) -> Vec<(f64, f64)> {
        let selective = item_minima(&self.selective_ms, self.per_lap(&self.selective_ms));
        let weight = (1.0 - BROAD_SHARE) / selective.len().max(1) as f64;
        let mut mix: Vec<(f64, f64)> = selective.into_iter().map(|ms| (ms, weight)).collect();
        mix.push((fastest(&self.broad_ms), BROAD_SHARE));
        mix
    }

    /// Median explore round of the mix, milliseconds.
    pub fn explore_median_ms(&self) -> f64 {
        weighted_percentile(&self.explore_mix(), 50.0)
    }

    /// Median prepared explore round, milliseconds.
    pub fn prepared_median_ms(&self) -> f64 {
        median(&item_minima(&self.prepared_ms, self.per_lap(&self.prepared_ms)))
    }

    /// The seven end-to-end metrics as `(name, value, unit)`.  Every work
    /// item (the engine build, a distinct round, the batch) counts with its
    /// fastest repeat; medians and the 95th percentile are taken across the
    /// distinct rounds.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let analyze = item_minima(&self.analyze_ms, self.per_lap(&self.analyze_ms));
        vec![
            ("setup_s", fastest(&self.setup_s), "s"),
            ("explore_ms", self.explore_median_ms(), "ms"),
            ("explore_p95_ms", weighted_percentile(&self.explore_mix(), 95.0), "ms"),
            ("analyze_ms", median(&analyze), "ms"),
            ("prepared_ms", self.prepared_median_ms(), "ms"),
            ("batch_rps", largest(&self.batch_rps), "req/s"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Whether two threads get two cores at this moment: an arithmetic loop run
/// on two threads at a time must take about as long as on one.  The two times
/// are taken within a few milliseconds of each other, so the check needs no
/// calibration.
fn two_cores_free() -> bool {
    fn spin() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..400_000_u64 {
            x = black_box(x ^ (x >> 13)).wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
        }
        black_box(x);
    }
    let start = Instant::now();
    spin();
    let one = start.elapsed();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(spin);
        spin();
    });
    start.elapsed() < one.mul_f64(1.3)
}

/// Keeps two threads busy until both get a core or `patience` has passed;
/// returns whether they do.
///
/// While one thread works, the host lends the machine's second core out, and
/// for long stretches it takes one to two seconds of two-thread load to get it
/// back; a batch sent straight after single-threaded work then runs at the
/// speed of one thread.  That is a state of the host, not of the program, so
/// whatever needs both cores — the batch, the two-thread engine build — is
/// preceded by this call and sampled only when it succeeds.
pub fn wake_second_core(patience: Duration) -> bool {
    let start = Instant::now();
    loop {
        if two_cores_free() {
            return true;
        }
        if start.elapsed() >= patience {
            return false;
        }
    }
}

/// The outcomes of one round, in statement order.
pub type Outcomes = Vec<Result<SedaResponse, SedaError>>;

/// Sends `statements` as text, one after the other, and returns the wall time
/// of the whole round in milliseconds with the outcomes.  Responses are
/// dropped after the clock stops.
pub fn text_round(reader: &mut SedaReader<'_>, statements: &[String]) -> (f64, Outcomes) {
    let mut outcomes = Vec::with_capacity(statements.len());
    let start = Instant::now();
    for statement in statements {
        outcomes.push(reader.execute_text(statement));
    }
    (start.elapsed().as_secs_f64() * 1e3, outcomes)
}

/// Sends the explore round of `query` cold, as text, and checks its answers.
fn explore_round(reader: &mut SedaReader<'_>, query: &Query, ops: &mut Ops) -> (f64, Outcomes) {
    let statements = query.explore_round();
    let (ms, outcomes) = text_round(reader, &statements);
    for (text, outcome) in statements.iter().zip(&outcomes) {
        check::check_response(ops, text, query.may_truncate, outcome);
    }
    (ms, outcomes)
}

/// One explore round prepared once: its statements' text and compiled form.
struct PreparedRound {
    statements: Vec<(String, PreparedStatement)>,
}

/// Prepares the three statements of `query` and warms each with one
/// execution, which must give the payload the cold execution of the same text
/// gave (`cold`).
fn prepare_round(
    reader: &mut SedaReader<'_>,
    query: &Query,
    cold: &Outcomes,
    ops: &mut Ops,
) -> Option<PreparedRound> {
    let mut statements = Vec::with_capacity(3);
    for (text, cold) in query.explore_round().into_iter().zip(cold) {
        let request = check::parse_requests(ops, std::slice::from_ref(&text)).pop()?;
        let mut statement = match reader.prepare(&request) {
            Ok(statement) => statement,
            Err(err) => {
                ops.fail(format!("prepare {text}: {err}"));
                return None;
            }
        };
        let warm = statement.execute(reader);
        check::check_response(ops, &text, query.may_truncate, &warm);
        check::check_prepared_equals_cold(ops, &text, cold, &warm);
        statements.push((text, statement));
    }
    Some(PreparedRound { statements })
}

/// The batch: the requests of the first [`BATCH_ROUNDS`] selective rounds,
/// parsed, with their text.
///
/// The broad round stays out of it.  It is one request chain several times
/// as long as all the others of a batch together (five times on
/// `googlebase-flat`), so a batch holding it would time that one request
/// again, on whichever worker drew it, and not the throughput of two readers.
pub struct Batch {
    texts: Vec<String>,
    requests: Vec<SedaRequest>,
}

impl Batch {
    /// Parses the batch of `requests`; `None` when a request does not parse.
    pub fn parse(requests: &Requests, ops: &mut Ops) -> Option<Batch> {
        let texts: Vec<String> =
            requests.selective.iter().take(BATCH_ROUNDS).flat_map(Query::explore_round).collect();
        let parsed = check::parse_requests(ops, &texts);
        (parsed.len() == texts.len()).then_some(Batch { texts, requests: parsed })
    }

    /// Runs the batch through `SedaEngine::execute_batch(requests, threads)`
    /// and returns its requests per second.
    pub fn run(&self, engine: &SedaEngine, threads: usize, ops: &mut Ops) -> f64 {
        let start = Instant::now();
        let outcomes = engine.execute_batch(&self.requests, threads);
        let rps = self.requests.len() as f64 / start.elapsed().as_secs_f64();
        for (text, outcome) in self.texts.iter().zip(&outcomes) {
            check::check_response(ops, text, false, outcome);
        }
        rps
    }
}

/// The request phases of one lap on the run's engine:
///
/// * every selective explore round — `TOPK 10`, `CONTEXTS`, `CONNECTIONS 10`
///   over one query, each a cold text request — with the broad round
///   [`BROAD_PER_LAP`] times among them;
/// * in the first lap, untimed: every selective query's statements prepared,
///   warmed and compared with the cold answers;
/// * the prepared rounds re-executed through `PreparedStatement::execute`;
/// * every analyze round — the workload's `RESULTS` / `CUBE` / `TWIG`
///   statements;
/// * [`BATCHES_PER_WAKE`] batches on [`BATCH_THREADS`] threads, if the second
///   core wakes within [`LAP_PATIENCE`].
fn request_lap(
    engine: &SedaEngine,
    reader: &mut SedaReader<'_>,
    requests: &Requests,
    batch: Option<&Batch>,
    prepared: &mut Vec<PreparedRound>,
    ops: &mut Ops,
    timed: &mut Timed,
) {
    let first_lap = prepared.is_empty();
    let broad_every = requests.selective.len().div_ceil(BROAD_PER_LAP);
    for (i, query) in requests.selective.iter().enumerate() {
        let (ms, outcomes) = explore_round(reader, query, ops);
        timed.selective_ms.push(ms);
        if first_lap {
            prepared.extend(prepare_round(reader, query, &outcomes, ops));
        }
        if i % broad_every == broad_every - 1 {
            timed.broad_ms.push(explore_round(reader, &requests.broad, ops).0);
        }
    }
    for round in prepared.iter_mut() {
        let mut outcomes = Vec::with_capacity(round.statements.len());
        let start = Instant::now();
        for (_, statement) in round.statements.iter_mut() {
            outcomes.push(statement.execute(reader));
        }
        timed.prepared_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for ((text, _), outcome) in round.statements.iter().zip(&outcomes) {
            check::check_response(ops, text, false, outcome);
        }
    }
    for statements in &requests.analyze {
        let (ms, outcomes) = text_round(reader, statements);
        timed.analyze_ms.push(ms);
        for (text, outcome) in statements.iter().zip(&outcomes) {
            check::check_response(ops, text, false, outcome);
        }
    }
    if let Some(batch) = batch.filter(|_| wake_second_core(LAP_PATIENCE)) {
        for _ in 0..BATCHES_PER_WAKE {
            timed.batch_rps.push(batch.run(engine, BATCH_THREADS, ops));
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB; `NaN` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the engine from the XML text and times the build (`setup_s`); an
/// `Err` is a failed operation.
fn timed_build(inputs: &Inputs, ops: &mut Ops, timed: &mut Timed) -> Option<SedaEngine> {
    let start = Instant::now();
    let built = inputs.build(inputs.workload.parallelism());
    timed.setup_s.push(start.elapsed().as_secs_f64());
    match built {
        Ok(engine) => {
            ops.check(true, String::new);
            Some(engine)
        }
        Err(err) => {
            ops.fail(format!("engine build: {err}"));
            None
        }
    }
}

/// Builds the run's engine, then runs laps on it until the budget is used.
/// Every lap but the first starts with one more timed build, of an engine
/// that is dropped as soon as the clock stops; the run's engine stays, so
/// that statements are prepared once and every repeat of a request meets the
/// same engine.  `peak_rss_mb` is read at the end of the first lap, when the
/// process has built one engine and run every request phase once and no
/// second engine has existed yet.  Returns the run's engine for the output
/// checker.
pub fn run_timed(
    inputs: &mut Inputs,
    budget: Budget,
    ops: &mut Ops,
) -> (Timed, Option<SedaEngine>) {
    let mut timed = Timed::default();
    let Some(engine) = timed_build(inputs, ops, &mut timed) else {
        return (timed, None);
    };
    // The program's parse of the generated text, against which the XML round
    // trip is checked.
    let round_trip = xml::check_round_trip(&inputs.generated, engine.collection());
    ops.check(round_trip.is_ok(), || round_trip.clone().unwrap_err());
    inputs.generated = Collection::new();

    let requests = &inputs.requests;
    let batch = Batch::parse(requests, ops);
    let mut reader = engine.reader();
    let mut prepared = Vec::with_capacity(requests.selective.len());
    let start = Instant::now();
    while timed.laps < budget.min_laps || start.elapsed().as_secs_f64() < budget.seconds {
        let parallelism = inputs.workload.parallelism();
        if timed.laps > 0 && (parallelism == 1 || wake_second_core(LAP_PATIENCE)) {
            drop(timed_build(inputs, ops, &mut timed));
        }
        request_lap(&engine, &mut reader, requests, batch.as_ref(), &mut prepared, ops, &mut timed);
        if timed.laps == 0 {
            timed.peak_rss_mb = peak_rss_mb();
        }
        timed.laps += 1;
    }
    drop((reader, prepared));
    if let Some(batch) = batch.as_ref().filter(|_| timed.batch_rps.len() < MIN_BATCHES) {
        // The second core was asleep in most laps: wait longer for it once,
        // and report batches whether or not it came.
        wake_second_core(FINAL_PATIENCE);
        for _ in 0..MIN_BATCHES {
            timed.batch_rps.push(batch.run(&engine, BATCH_THREADS, ops));
        }
    }
    (timed, Some(engine))
}
