//! Per-thread reader handles: the contention-free execution surface of the
//! query facade.
//!
//! A [`SedaReader`] is a cheap handle over a shared [`SedaEngine`] that owns
//! its own [`SearchScratch`] (posting-list buffers, candidate arenas,
//! traversal scratch).  Every query a reader executes reuses that scratch, so N
//! threads holding N readers serve queries fully in parallel — the engine
//! itself holds no query-time mutable state besides its atomic metrics.
//!
//! Every execution entry point runs inside the reader's one containment
//! boundary: a panic below becomes [`SedaError::Internal`], the scratch is
//! rebuilt and the tracer reset, so the same reader keeps serving.
//!
//! ```
//! use seda_core::{EngineConfig, SedaEngine, SedaRequest};
//! use seda_olap::Registry;
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![("us.xml",
//!     r#"<country><name>United States</name><year>2006</year></country>"#)]).unwrap();
//! let engine = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
//! let mut reader = engine.reader();
//! let response = reader.execute_text(r#"TOPK 5 FOR (name, "United States")"#).unwrap();
//! assert_eq!(response.top_k().unwrap().tuples.len(), 1);
//! ```

use seda_olap::{aggregate, CubeQuery, QueryResultTable};
use seda_topk::{
    LimitBreach, MaterializedTerms, SearchScratch, SearchStats, TopKConfig, TopKResult,
};

use crate::engine::{catch_internal, GovernedTable, SedaEngine};
use crate::error::SedaError;
use crate::govern::{RequestContext, Stopwatch};
use crate::metrics::names;
use crate::parallel::{effective_parallelism, parallel_map_with};
use crate::plan::QueryPlan;
use crate::prepared::PreparedStatement;
use crate::query::SedaQuery;
use crate::request::{SedaRequest, Statement};
use crate::response::{ExecProfile, ResponsePayload, SedaResponse};
use crate::summaries::{ConnectionSummary, ContextSelections, ContextSummary};
use crate::trace::{render_analyzed, span, SpanCounters, Tracer};

/// Resolves a governance breach against the request's policy: cancellation
/// and (recomputed) deadlines keep their precise numbers, a degraded-opt-in
/// caller keeps the partial payload with [`ExecProfile::degraded`] set, and
/// everyone else gets the typed [`SedaError::Limit`].
fn resolve_breach(
    breach: Option<LimitBreach>,
    ctx: &RequestContext,
    profile: &mut ExecProfile,
) -> Result<(), SedaError> {
    let Some(breach) = breach else { return Ok(()) };
    if breach.resource == "cancelled" {
        return Err(SedaError::Cancelled);
    }
    // The searcher reports deadline breaches with placeholder numbers (it
    // does not know the request's start instant); rebuild them here.
    let breach = if breach.resource == "deadline" {
        ctx.deadline_breach().unwrap_or(breach)
    } else {
        breach
    };
    if ctx.degraded_allowed() {
        profile.degraded = true;
        Ok(())
    } else {
        Err(breach.into())
    }
}

/// Clips a degraded payload to `keep` rows, preserving each shape's order
/// (score order for top-k tuples, frequency order for summaries, sorted row
/// order for tables, cell order for cubes).
fn truncate_payload(payload: &mut ResponsePayload, keep: usize) {
    match payload {
        ResponsePayload::TopK(result) => result.tuples.truncate(keep),
        ResponsePayload::Contexts(summary) => {
            let mut remaining = keep;
            for bucket in &mut summary.buckets {
                bucket.entries.truncate(remaining);
                remaining -= bucket.entries.len();
            }
        }
        ResponsePayload::Connections { summary, .. } => summary.connections.truncate(keep),
        ResponsePayload::Table(table) => table.rows.truncate(keep),
        ResponsePayload::Cube { cube, .. } => cube.cells.truncate(keep),
        ResponsePayload::Explain(_) => {}
    }
}

/// A per-thread query handle owning its own scratch buffers.
pub struct SedaReader<'e> {
    engine: &'e SedaEngine,
    scratch: SearchScratch,
    /// Per-reader span recorder.  Disabled by default (enters cost one
    /// branch); enabled via [`SedaReader::set_tracing`] or, for a single
    /// request, by `EXPLAIN ANALYZE`.
    tracer: Tracer,
}

impl SedaEngine {
    /// Creates a reader handle for this engine.
    ///
    /// Readers are cheap (buffers grow lazily to their working size) and
    /// never contend: each owns its scratch, so one reader per thread serves
    /// concurrent queries without blocking.
    pub fn reader(&self) -> SedaReader<'_> {
        SedaReader { engine: self, scratch: SearchScratch::new(), tracer: Tracer::disabled() }
    }

    /// Plans and executes a batch of requests, fanning them across a pool of
    /// reader handles (`parallelism` as in [`crate::EngineConfig`]: `0` =
    /// auto, `1` = inline, `n` = `n` workers).  Results are returned in
    /// request order; each request fails or succeeds independently.
    pub fn execute_batch(
        &self,
        requests: &[SedaRequest],
        parallelism: usize,
    ) -> Vec<Result<SedaResponse, SedaError>> {
        let threads = effective_parallelism(parallelism).max(1);
        parallel_map_with(
            requests,
            threads,
            || self.reader(),
            |reader, request| reader.execute(request),
        )
        .into_iter()
        .map(|slot| match slot {
            Ok(result) => result,
            // A panic was contained inside the worker; the neighbouring
            // requests completed on rebuilt reader state.
            Err(panic) => Err(SedaError::Internal(panic.message)),
        })
        .collect()
    }
}

impl<'e> SedaReader<'e> {
    /// The engine this reader serves.
    pub fn engine(&self) -> &'e SedaEngine {
        self.engine
    }

    /// The scratch every request of this reader runs through, for tests that
    /// drive the searcher through the same buffers or read the traversal
    /// counters a request left behind.  Not part of the supported API.
    #[doc(hidden)]
    pub fn scratch_mut(&mut self) -> &mut SearchScratch {
        &mut self.scratch
    }

    /// Compiles a request into a reusable [`PreparedStatement`]: the plan
    /// plus the materialized sorted posting lists of its terms and their
    /// component partition, which a cold execution rebuilds every time.
    ///
    /// Preparing touches no reader scratch, and the returned statement may
    /// execute through *any* reader of this engine.
    pub fn prepare(&self, request: &SedaRequest) -> Result<PreparedStatement, SedaError> {
        let plan = self.engine.prepare(request)?;
        let materialized = (!plan.term_inputs.is_empty())
            .then(|| self.engine.materialize_search_terms(&plan.term_inputs));
        Ok(PreparedStatement { plan, materialized, executions: 0 })
    }

    /// Plans a request and returns the plan transcript.
    pub fn explain(&self, request: &SedaRequest) -> Result<String, SedaError> {
        Ok(self.engine.prepare(request)?.explain())
    }

    /// Turns span tracing on or off for every subsequent request this reader
    /// executes.  Traced requests carry their span tree in
    /// [`ExecProfile::spans`]; untraced requests leave it empty.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.reset();
        self.tracer.set_enabled(enabled);
    }

    /// True when this reader records spans for every request.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Parses and executes a textual request.
    pub fn execute_text(&mut self, text: &str) -> Result<SedaResponse, SedaError> {
        self.tracer.begin_if_idle();
        let parse_span = self.tracer.enter(span::PARSE);
        let request = match SedaRequest::parse(text) {
            Ok(request) => request,
            Err(err) => {
                self.tracer.exit(parse_span);
                self.tracer.reset();
                return Err(err);
            }
        };
        self.tracer.exit(parse_span);
        self.execute(&request)
    }

    /// Plans and executes a request through this reader's scratch.
    ///
    /// An `EXPLAIN` request stops after planning and returns the transcript
    /// as [`ResponsePayload::Explain`].
    pub fn execute(&mut self, request: &SedaRequest) -> Result<SedaResponse, SedaError> {
        self.execute_governed(request, &RequestContext::unlimited())
    }

    /// [`SedaReader::execute`] under a per-request [`RequestContext`]:
    /// deadlines, budget ceilings and cancellation are enforced at the
    /// pipeline's counter sites, a breach surfaces as [`SedaError::Limit`]
    /// (or a partial payload with [`ExecProfile::degraded`] set when the
    /// context allows degraded responses), and any panic below is contained
    /// into [`SedaError::Internal`], leaving the reader and engine usable.
    pub fn execute_governed(
        &mut self,
        request: &SedaRequest,
        ctx: &RequestContext,
    ) -> Result<SedaResponse, SedaError> {
        // EXPLAIN ANALYZE forces tracing on for this one request, restoring
        // the reader's steady-state setting afterwards.
        let analyze = request.explain && request.analyze;
        let force_tracing = analyze && !self.tracer.is_enabled();
        if force_tracing {
            self.tracer.set_enabled(true);
        }
        let outcome = self.execute_governed_inner(request, ctx);
        if force_tracing {
            self.tracer.set_enabled(false);
        }
        outcome
    }

    fn execute_governed_inner(
        &mut self,
        request: &SedaRequest,
        ctx: &RequestContext,
    ) -> Result<SedaResponse, SedaError> {
        self.tracer.begin_if_idle();
        let plan_span = self.tracer.enter(span::PLAN);
        let plan_start = Stopwatch::start();
        let plan = match self.engine.prepare(request) {
            Ok(plan) => plan,
            Err(err) => {
                self.tracer.exit(plan_span);
                self.tracer.reset();
                // A plan-time failure never reaches the execution boundary;
                // it is this request's one metrics record.
                return self.recorded(request.statement.name(), Err(err));
            }
        };
        let plan_secs = plan_start.elapsed_secs();
        self.tracer.exit(plan_span);
        if request.explain && !request.analyze {
            let mut profile = ExecProfile { plan_secs, ..ExecProfile::default() };
            profile.spans = self.tracer.take_spans();
            let payload = ResponsePayload::Explain(plan.explain());
            profile.rows = payload.rows();
            // Plain EXPLAIN stops before the boundary too.
            return self.recorded(request.statement.name(), Ok(SedaResponse { payload, profile }));
        }
        let mut response = self.run_plan(&plan, ctx, plan_secs, None)?;
        if request.analyze {
            // EXPLAIN ANALYZE: the payload becomes the annotated transcript
            // (plan + budget accounting + executed span tree); the profile
            // keeps the execution's counters, wall split and spans.
            let transcript = render_analyzed(&plan.explain(), &response.profile);
            response.payload = ResponsePayload::Explain(transcript);
        }
        Ok(response)
    }

    /// Records a request's outcome into the engine-wide metrics registry
    /// (see [`crate::metrics`]) and hands it back.  A request is recorded
    /// exactly once: by [`SedaReader::run_plan`] when it executes, or by the
    /// facade when it stops at planning (plan-time errors, plain `EXPLAIN`).
    fn recorded(
        &self,
        label: &'static str,
        outcome: Result<SedaResponse, SedaError>,
    ) -> Result<SedaResponse, SedaError> {
        let metrics = self.engine.metrics();
        metrics.counter(names::REQUESTS_TOTAL, label).inc();
        match &outcome {
            Ok(response) => {
                metrics
                    .counter(names::ROWS_RETURNED_TOTAL, label)
                    .add(response.profile.rows as u64);
                metrics
                    .histogram(names::REQUEST_LATENCY_SECONDS, label)
                    .observe_secs(response.profile.total_secs());
                if response.profile.degraded {
                    metrics.counter(names::DEGRADED_RESPONSES_TOTAL, "").inc();
                }
            }
            Err(err) => {
                metrics.counter(names::REQUEST_ERRORS_TOTAL, "").inc();
                match err {
                    SedaError::Limit { .. } => {
                        metrics.counter(names::BUDGET_BREACHES_TOTAL, "").inc();
                    }
                    SedaError::Cancelled => {
                        metrics.counter(names::CANCELLATIONS_TOTAL, "").inc();
                    }
                    SedaError::Internal(_) => {
                        metrics.counter(names::PANICS_CONTAINED_TOTAL, "").inc();
                    }
                    _ => {}
                }
            }
        }
        outcome
    }

    /// The reader's one panic-containment boundary: every execution entry
    /// point — plans, prepared statements, the typed steps — runs its body
    /// here, so a panic anywhere below becomes
    /// [`SedaError::Internal`] and the reader heals before returning.
    fn contained<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, SedaError>,
    ) -> Result<T, SedaError> {
        let outcome = catch_internal(|| body(self));
        if matches!(outcome, Err(SedaError::Internal(_))) {
            // A contained panic may have left this reader's scratch buffers
            // mid-update; rebuild them so the next query starts clean.
            self.scratch = SearchScratch::new();
        }
        if outcome.is_err() {
            // Spans left open by the failed execution (including an unwound
            // one) must not leak into the next request's trace.
            self.tracer.reset();
        }
        outcome
    }

    /// Executes a plan as one request: the statement executor runs inside
    /// the containment boundary, and the outcome is recorded in the metrics
    /// registry — the single path behind the facade, direct plan execution
    /// and prepared statements (which lend their `materialized` term lists).
    /// A plan lowered by another engine is refused with
    /// [`SedaError::ForeignPlan`] before anything runs.
    fn run_plan(
        &mut self,
        plan: &QueryPlan,
        ctx: &RequestContext,
        plan_secs: f64,
        materialized: Option<&MaterializedTerms>,
    ) -> Result<SedaResponse, SedaError> {
        let outcome = if plan.engine != self.engine.id() {
            Err(SedaError::ForeignPlan)
        } else {
            self.contained(|reader| {
                let mut response = reader.execute_statement(plan, ctx, materialized)?;
                response.profile.plan_secs = plan_secs;
                Ok(response)
            })
        };
        self.recorded(plan.statement.name(), outcome)
    }

    /// Executes an already-planned request under a per-request
    /// [`RequestContext`] ([`RequestContext::unlimited`] for ungoverned
    /// callers), with the governance and panic-containment semantics of
    /// [`SedaReader::execute_governed`].
    pub fn execute_plan_governed(
        &mut self,
        plan: &QueryPlan,
        ctx: &RequestContext,
    ) -> Result<SedaResponse, SedaError> {
        self.run_plan(plan, ctx, 0.0, None)
    }

    /// What [`PreparedStatement::execute_governed`] reaches: the executor
    /// runs over the statement's materialized term lists instead of
    /// rebuilding them, as one request like
    /// [`SedaReader::execute_plan_governed`].
    pub(crate) fn execute_prepared_governed(
        &mut self,
        statement: &mut PreparedStatement,
        ctx: &RequestContext,
    ) -> Result<SedaResponse, SedaError> {
        let PreparedStatement { plan, materialized, executions } = statement;
        let outcome = self.run_plan(plan, ctx, 0.0, materialized.as_ref());
        if outcome.is_ok() {
            *executions += 1;
        }
        outcome
    }

    /// The search step of `TOPK` and `CONNECTIONS`: one traced search over
    /// the plan's term inputs (or a prepared statement's `materialized`
    /// lists), its counters absorbed into `profile` and a breach resolved
    /// against the request's policy.
    fn run_search(
        &mut self,
        plan: &QueryPlan,
        ctx: &RequestContext,
        profile: &mut ExecProfile,
        materialized: Option<&MaterializedTerms>,
    ) -> Result<TopKResult, SedaError> {
        let s = self.tracer.enter(span::SEARCH);
        let before = profile.clone();
        let (result, breach) = self.engine.search(
            &plan.term_inputs,
            plan.search_config(),
            &ctx.search_limits(),
            &mut self.scratch,
            materialized,
        );
        profile.absorb(&result.stats);
        let mut counters = SpanCounters::delta(&before, profile);
        counters.rows = result.tuples.len();
        self.tracer.exit_with(s, counters);
        resolve_breach(breach, ctx, profile)?;
        Ok(result)
    }

    /// The complete-results step of `RESULTS` and `CUBE`: R(q) over the
    /// plan's resolved per-term context paths, traced, the label probes of
    /// its connectivity checks (the cross-root join, the connection filter)
    /// absorbed into `profile` and the span, the document nodes its twig
    /// evaluations visited (0 for the cross-root join) into the span, with a
    /// breach resolved against the request's policy.
    fn run_complete_results(
        &mut self,
        plan: &QueryPlan,
        ctx: &RequestContext,
        profile: &mut ExecProfile,
    ) -> Result<QueryResultTable, SedaError> {
        let query = plan
            .query
            .as_ref()
            .expect("invariant: the planner attaches a query to this statement shape");
        let s = self.tracer.enter(span::COMPLETE_RESULTS);
        let GovernedTable { table, nodes_visited, label_probes, breach } =
            self.engine.complete_results_governed(
                query,
                &plan.term_paths,
                &plan.connections,
                &mut self.scratch,
                ctx,
            )?;
        profile.absorb(&SearchStats { label_probes, ..SearchStats::default() });
        let counters = SpanCounters {
            rows: table.len(),
            label_probes,
            nodes_visited,
            ..SpanCounters::default()
        };
        self.tracer.exit_with(s, counters);
        resolve_breach(breach, ctx, profile)?;
        Ok(table)
    }

    /// The one statement executor: runs the plan's statement, over a
    /// prepared statement's `materialized` term lists when lent.
    fn execute_statement(
        &mut self,
        plan: &QueryPlan,
        ctx: &RequestContext,
        materialized: Option<&MaterializedTerms>,
    ) -> Result<SedaResponse, SedaError> {
        self.tracer.begin_if_idle();
        let exec_span = self.tracer.enter(span::EXECUTE);
        let exec_start = Stopwatch::start();
        let mut profile = ExecProfile::default();
        ctx.check_cancelled()?;
        let mut payload = match &plan.statement {
            Statement::TopK { .. } => {
                ResponsePayload::TopK(self.run_search(plan, ctx, &mut profile, materialized)?)
            }
            Statement::ContextSummary => {
                let query = plan
                    .query
                    .as_ref()
                    .expect("invariant: the planner attaches a query to this statement shape");
                let s = self.tracer.enter(span::CONTEXT_SUMMARY);
                let contexts = self.engine.context_summary(query);
                let counters =
                    SpanCounters { rows: contexts.total_contexts(), ..SpanCounters::default() };
                self.tracer.exit_with(s, counters);
                resolve_breach(ctx.deadline_breach(), ctx, &mut profile)?;
                ResponsePayload::Contexts(contexts)
            }
            Statement::ConnectionSummary { .. } => {
                let top_k = self.run_search(plan, ctx, &mut profile, materialized)?;
                ctx.check_cancelled()?;
                let s = self.tracer.enter(span::DISCOVER_CONNECTIONS);
                let summary = self.engine.connection_summary(&top_k);
                let counters = SpanCounters { rows: summary.len(), ..SpanCounters::default() };
                self.tracer.exit_with(s, counters);
                resolve_breach(ctx.deadline_breach(), ctx, &mut profile)?;
                ResponsePayload::Connections { top_k, summary }
            }
            Statement::CompleteResults => {
                ResponsePayload::Table(self.run_complete_results(plan, ctx, &mut profile)?)
            }
            Statement::Twig { .. } => {
                let pattern = plan
                    .pattern
                    .as_ref()
                    .expect("invariant: the planner compiles twig statements to a pattern");
                let s = self.tracer.enter(span::TWIG_EVALUATE);
                let GovernedTable { mut table, nodes_visited, breach, .. } =
                    self.engine.twig_table(pattern, ctx)?;
                let counters =
                    SpanCounters { nodes_visited, rows: table.len(), ..SpanCounters::default() };
                self.tracer.exit_with(s, counters);
                if let Some(breach) = ctx.twig_breach(table.len()) {
                    let keep = breach.budget as usize;
                    resolve_breach(Some(breach), ctx, &mut profile)?;
                    table.rows.truncate(keep);
                }
                // A deadline that stopped the evaluation left a prefix; one
                // that ran out after it, the whole table.
                let breach = breach.or_else(|| ctx.deadline_breach());
                resolve_breach(breach, ctx, &mut profile)?;
                ResponsePayload::Table(table)
            }
            Statement::Cube { fact, group_by, agg, measure } => {
                let table = self.run_complete_results(plan, ctx, &mut profile)?;
                ctx.check_cancelled()?;
                let s = self.tracer.enter(span::DERIVE_STAR_SCHEMA);
                let build = self.engine.build_star_schema(&table, &plan.cube_options);
                self.tracer.exit(s);
                let fact_table =
                    build.schema.fact(fact).ok_or_else(|| SedaError::UnknownFact(fact.clone()))?;
                let measure = measure.clone().unwrap_or_else(|| fact.clone());
                let group_refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
                let cube_query = CubeQuery::sum(&group_refs, &measure).with_agg(*agg);
                let s = self.tracer.enter(span::AGGREGATE);
                let cube = aggregate(fact_table, &cube_query);
                let counters = SpanCounters {
                    rows: cube.as_ref().map(|c| c.rows_scanned).unwrap_or(0),
                    ..SpanCounters::default()
                };
                self.tracer.exit_with(s, counters);
                let mut cube = cube?;
                if let Some(breach) = ctx.cube_breach(cube.len()) {
                    let keep = breach.budget as usize;
                    resolve_breach(Some(breach), ctx, &mut profile)?;
                    cube.cells.truncate(keep);
                }
                ResponsePayload::Cube { build, cube }
            }
        };
        if let Some(breach) = ctx.row_breach(payload.rows()) {
            let keep = breach.budget as usize;
            resolve_breach(Some(breach), ctx, &mut profile)?;
            truncate_payload(&mut payload, keep);
        }
        profile.exec_secs = exec_start.elapsed_secs();
        profile.rows = payload.rows();
        profile.settle_budget_spent();
        self.tracer.exit(exec_span);
        profile.spans = self.tracer.take_spans();
        Ok(SedaResponse { payload, profile })
    }

    // ----- typed helpers (the surface `SedaSession` composes) -----

    /// Top-k search through this reader's scratch under a per-request
    /// [`RequestContext`] ([`RequestContext::unlimited`] for ungoverned
    /// callers): a budget breach yields the certifiably correct prefix with
    /// [`ExecProfile::degraded`] set when the context allows degraded
    /// responses, and [`SedaError::Limit`] otherwise.
    pub fn top_k_governed(
        &mut self,
        query: &SedaQuery,
        selections: &ContextSelections,
        k: usize,
        ctx: &RequestContext,
    ) -> Result<(TopKResult, ExecProfile), SedaError> {
        self.contained(|reader| {
            ctx.check_cancelled()?;
            let terms = reader.engine.term_inputs(query, selections);
            let start = Stopwatch::start();
            // The typed step runs the engine-default configuration at `k`,
            // no prepared state.
            let config = TopKConfig { k, ..reader.engine.config().topk.clone() };
            let (result, breach) = reader.engine.search(
                &terms,
                &config,
                &ctx.search_limits(),
                &mut reader.scratch,
                None,
            );
            let mut profile =
                ExecProfile { exec_secs: start.elapsed_secs(), ..ExecProfile::default() };
            profile.absorb(&result.stats);
            resolve_breach(breach, ctx, &mut profile)?;
            profile.rows = result.tuples.len();
            profile.settle_budget_spent();
            Ok((result, profile))
        })
    }

    /// Context summary of a query (read-only, no scratch needed).
    pub fn context_summary(&self, query: &SedaQuery) -> ContextSummary {
        self.engine.context_summary(query)
    }

    /// Connection summary of an existing top-k result.
    pub fn connection_summary(&mut self, top_k: &TopKResult) -> ConnectionSummary {
        self.engine.connection_summary(top_k)
    }

    /// Complete result set R(q) through this reader's scratch.
    pub fn complete_results(
        &mut self,
        query: &SedaQuery,
        selections: &ContextSelections,
        connections: &[seda_dataguide::Connection],
    ) -> Result<seda_olap::QueryResultTable, SedaError> {
        let ctx = RequestContext::unlimited();
        self.contained(|SedaReader { engine, scratch, .. }| {
            let term_paths = engine.term_paths(query, selections);
            let results =
                engine.complete_results_governed(query, &term_paths, connections, scratch, &ctx)?;
            Ok(results.table)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use seda_olap::Registry;
    use seda_xmlstore::parse_collection;

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![
            (
                "us2006.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "us2005.xml",
                r#"<country><name>United States</name><year>2005</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>13.8</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    #[test]
    fn reader_executes_every_statement_shape() {
        let e = engine();
        let mut reader = e.reader();
        let q = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;

        let topk = reader.execute_text(&format!("TOPK 5 FOR {q}")).unwrap();
        assert!(!topk.top_k().unwrap().tuples.is_empty());
        assert!(topk.profile.sorted_accesses > 0);
        assert_eq!(topk.profile.rows, topk.top_k().unwrap().tuples.len());

        let contexts = reader.execute_text(&format!("CONTEXTS FOR {q}")).unwrap();
        assert_eq!(contexts.contexts().unwrap().buckets.len(), 3);

        let connections = reader.execute_text(&format!("CONNECTIONS 5 FOR {q}")).unwrap();
        assert!(!connections.connections().unwrap().is_empty());

        let results = reader
            .execute_text(&format!(
                "RESULTS FOR {q} WITH 0 IN /country/name \
                 WITH 1 IN /country/economy/import_partners/item/trade_country \
                 WITH 2 IN /country/economy/import_partners/item/percentage"
            ))
            .unwrap();
        assert_eq!(results.table().unwrap().len(), 3);

        let twig = reader.execute_text("TWIG /country/economy//trade_country").unwrap();
        assert_eq!(twig.table().unwrap().len(), 3);

        let cube = reader
            .execute_text(&format!(
                "CUBE import-trade-percentage BY import-country AGG sum FOR {q} \
                 WITH 0 IN /country/name \
                 WITH 1 IN /country/economy/import_partners/item/trade_country \
                 WITH 2 IN /country/economy/import_partners/item/percentage"
            ))
            .unwrap();
        let china = cube.cube().unwrap().cell(&["China"]).unwrap();
        assert!((china.value - (15.0 + 13.8)).abs() < 1e-9);
    }

    #[test]
    fn k_zero_is_honoured_literally() {
        let e = engine();
        let mut reader = e.reader();
        let response = reader.execute_text("TOPK 0 FOR (trade_country, *)").unwrap();
        assert!(response.top_k().unwrap().tuples.is_empty(), "k=0 must yield no tuples");
        let q = SedaQuery::parse("(trade_country, *)").unwrap();
        let ctx = RequestContext::unlimited();
        let (typed, _) = reader.top_k_governed(&q, &ContextSelections::none(), 0, &ctx).unwrap();
        assert!(typed.tuples.is_empty());
    }

    #[test]
    fn complete_result_limit_errors_with_typed_limit() {
        let collection = parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap();
        let e = SedaEngine::build(
            collection,
            Registry::factbook_defaults(),
            EngineConfig { complete_result_limit: 1, ..EngineConfig::default() },
        )
        .unwrap();
        let mut reader = e.reader();
        // Two distinct trade_country rows exceed the limit of 1 even after
        // deduplication → a typed Limit error, never a silent clip.
        let err = reader
            .execute_text(
                "RESULTS FOR (trade_country, *) \
                 WITH 0 IN /country/economy/import_partners/item/trade_country",
            )
            .unwrap_err();
        assert!(
            matches!(err, SedaError::Limit { resource: "complete-result tuples", .. }),
            "{err}"
        );
        // A query that fits the limit still succeeds.
        let response = reader.execute_text(r#"RESULTS FOR (trade_country, "China")"#).unwrap();
        assert_eq!(response.table().unwrap().len(), 1);
    }

    #[test]
    fn explain_requests_return_the_transcript() {
        let e = engine();
        let mut reader = e.reader();
        let response = reader.execute_text("EXPLAIN TOPK 5 FOR (name, *)").unwrap();
        let transcript = response.explain_transcript().unwrap();
        assert!(transcript.contains("plan: TOPK"), "{transcript}");
        // One term runs the same join as several.
        assert!(transcript.contains("threshold-algorithm rank join: k=5"), "{transcript}");
        let response = reader.execute_text("EXPLAIN TOPK 5 FOR (name, *) AND (year, *)").unwrap();
        let transcript = response.explain_transcript().unwrap();
        assert!(transcript.contains("threshold-algorithm rank join"), "{transcript}");
    }

    #[test]
    fn explain_is_a_pure_function_of_engine_and_request() {
        let e = engine();
        let q = "(trade_country, *) AND (percentage, *)";
        let texts = [
            format!("TOPK 5 FOR {q}"),
            format!("CONTEXTS FOR {q}"),
            format!("CONNECTIONS 5 FOR {q}"),
            format!("RESULTS FOR {q}"),
            "TWIG /country/name".to_string(),
            format!("CUBE import-trade-percentage BY import-country FOR {q}"),
        ];
        let requests: Vec<SedaRequest> =
            texts.iter().map(|t| SedaRequest::parse(t).unwrap()).collect();
        let mut reader = e.reader();
        let transcripts = |reader: &SedaReader<'_>| -> Vec<String> {
            requests.iter().map(|r| reader.explain(r).unwrap()).collect()
        };
        let before = transcripts(&reader);
        // A mixed workload — every shape executed, explained and prepared —
        // moves the engine's metrics but not one byte of any transcript.
        for (text, request) in texts.iter().zip(&requests) {
            reader.execute(request).unwrap();
            let explained = reader.execute_text(&format!("EXPLAIN {text}")).unwrap();
            let through_text = explained.explain_transcript().unwrap();
            let through_prepared = reader.prepare(request).unwrap().explain();
            let through_reader = reader.explain(request).unwrap();
            assert_eq!(through_text, through_reader, "{text}");
            assert_eq!(through_prepared, through_reader, "{text}");
        }
        assert_eq!(transcripts(&reader), before);
    }

    #[test]
    fn a_repeated_selection_path_does_not_change_the_answer() {
        let collection = parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap();
        // One context combination is the whole budget: counting the repeated
        // path as a second context would breach it.
        let e = SedaEngine::build(
            collection,
            Registry::factbook_defaults(),
            EngineConfig { complete_result_limit: 1, ..EngineConfig::default() },
        )
        .unwrap();
        let mut reader = e.reader();
        let q = "(trade_country, *) AND (percentage, *)";
        let p = "/country/economy/import_partners/item/trade_country";
        let rest = "WITH 1 IN /country/economy/import_partners/item/percentage";
        for shape in ["RESULTS", "CUBE import-trade-percentage BY import-country", "TOPK 5"] {
            let once = reader.execute_text(&format!("{shape} FOR {q} WITH 0 IN {p} {rest}"));
            let twice = reader.execute_text(&format!("{shape} FOR {q} WITH 0 IN {p}|{p} {rest}"));
            let (once, twice) = (once.unwrap(), twice.unwrap());
            assert_eq!(twice.payload, once.payload, "{shape}");
            assert_eq!(once.profile.rows, 1, "{shape}");
        }
    }

    #[test]
    fn unknown_fact_surfaces_as_typed_error() {
        let e = engine();
        let mut reader = e.reader();
        let err = reader
            .execute_text("CUBE nonexistent BY x FOR (*, \"United States\") AND (percentage, *)")
            .unwrap_err();
        assert_eq!(err, SedaError::UnknownFact("nonexistent".into()));
    }

    #[test]
    fn execute_batch_matches_sequential_execution() {
        let e = engine();
        let texts = [
            "TOPK 5 FOR (trade_country, *)",
            "CONTEXTS FOR (percentage, *)",
            "CONNECTIONS 5 FOR (trade_country, *) AND (percentage, *)",
            "TWIG /country/name",
        ];
        let requests: Vec<SedaRequest> =
            texts.iter().map(|t| SedaRequest::parse(t).unwrap()).collect();
        let mut reader = e.reader();
        let sequential: Vec<SedaResponse> =
            requests.iter().map(|r| reader.execute(r).unwrap()).collect();
        let batched = e.execute_batch(&requests, 4);
        assert_eq!(batched.len(), sequential.len());
        for (seq, bat) in sequential.iter().zip(batched) {
            let bat = bat.unwrap();
            assert_eq!(seq.payload, bat.payload, "batch payload must match sequential");
        }
    }
}
