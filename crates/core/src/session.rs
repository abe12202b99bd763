//! The interactive exploration session (Fig. 6 control flow).
//!
//! A [`SedaSession`] drives the paper's feedback loop programmatically,
//! standing in for the GUI of Fig. 5/7:
//!
//! 1. submit a keyword-style query → top-k results + context summary,
//! 2. optionally select contexts per term → top-k recomputed,
//! 3. inspect the connection summary → optionally select connections,
//! 4. compute the complete result set,
//! 5. derive the star schema and aggregate it into cubes.
//!
//! The session holds the request of its last stage — the query terms with
//! the refinements that stage reads — the `VIA` refinements selected so far,
//! and the last responses.  Every engine stage sends its request through
//! [`SedaReader::execute_governed`] under the session's budget, planned,
//! traced and counted like any request: `submit` runs `CONTEXTS`, then
//! `CONNECTIONS k` (whose payload carries the top-k: one search),
//! `select_contexts` runs `CONNECTIONS k`, `complete_results` runs
//! `RESULTS`.  A stage request carries only the clauses its statement reads:
//! `CONTEXTS` none, `CONNECTIONS` the `WITH` selections, `RESULTS` those and
//! the `VIA` refinements.  A stage changes the session only when all of its
//! requests succeed.  The star schema and its cubes are derived from the
//! `RESULTS` table, the paper's hand-off to an OLAP tool.  Stage misuse is
//! [`SedaError::Stage`].

use seda_dataguide::Connection;
use seda_olap::{
    aggregate, BuildOptions, CubeQuery, CubeResult, QueryResultTable, StarSchemaBuild,
};
use seda_topk::TopKResult;
use seda_xmlstore::PathId;

use crate::engine::SedaEngine;
use crate::error::SedaError;
use crate::govern::{Budget, RequestContext};
use crate::query::SedaQuery;
use crate::reader::SedaReader;
use crate::request::{SedaRequest, Statement};
use crate::response::{ExecProfile, SedaResponse};
use crate::summaries::{ConnectionSummary, ContextSummary};

/// Where the session currently stands in the Fig. 6 control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStage {
    /// No query submitted yet.
    Empty,
    /// A query was submitted; top-k results and summaries are available.
    Explored,
    /// The complete result set has been materialised.
    Materialized,
    /// A star schema has been derived.
    Analyzed,
}

/// One interactive exploration session over a [`SedaEngine`].
pub struct SedaSession<'a> {
    reader: SedaReader<'a>,
    /// The last stage's request: the query and the refinements it reads.
    request: Option<SedaRequest>,
    /// The `VIA` refinements selected so far, which only `RESULTS` reads.
    via: Vec<Vec<String>>,
    contexts: Option<SedaResponse>,
    connections: Option<SedaResponse>,
    complete: Option<SedaResponse>,
    star_schema: Option<StarSchemaBuild>,
    k: usize,
    budget: Option<Budget>,
}

impl<'a> SedaSession<'a> {
    /// Opens a session over an engine.
    pub fn new(engine: &'a SedaEngine) -> Self {
        SedaSession {
            reader: engine.reader(),
            request: None,
            via: Vec::new(),
            contexts: None,
            connections: None,
            complete: None,
            star_schema: None,
            k: Self::DEFAULT_K,
            budget: None,
        }
    }

    /// The engine the session runs over.
    pub fn engine(&self) -> &'a SedaEngine {
        self.reader.engine()
    }

    /// Current stage in the control flow.
    pub fn stage(&self) -> SessionStage {
        if self.star_schema.is_some() {
            SessionStage::Analyzed
        } else if self.complete.is_some() {
            SessionStage::Materialized
        } else if self.request.is_some() {
            SessionStage::Explored
        } else {
            SessionStage::Empty
        }
    }

    /// The `k` a session retrieves until [`SedaSession::set_k`] changes it.
    const DEFAULT_K: usize = 10;

    /// Sets the number of top-k results to retrieve per iteration.
    pub fn set_k(&mut self, k: usize) {
        self.k = k.max(1);
    }

    /// Sets (or clears) the [`Budget`] of this session.  It governs every
    /// request of every stage, each on its own budget, **with degraded
    /// responses allowed**: an interactive explorer prefers a flagged partial
    /// answer over an error, visible in [`SedaSession::last_profile`].
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
    }

    /// The [`ExecProfile`] of the last request the session ran: `RESULTS`
    /// once the complete results are materialised, `CONNECTIONS` before.
    /// Its `degraded` flag covers every answer of the last stage: a
    /// `submit` whose context summary was clipped reads degraded too.
    pub fn last_profile(&self) -> Option<&ExecProfile> {
        self.complete.as_ref().or(self.connections.as_ref()).map(|response| &response.profile)
    }

    /// The session's request, its statement the last stage's: rendered, it
    /// replays that stage through any reader of the engine.
    pub fn request(&self) -> Option<&SedaRequest> {
        self.request.as_ref()
    }

    fn stage_error(&self, operation: &'static str, required: &'static str) -> SedaError {
        SedaError::Stage { operation, required, stage: self.stage() }
    }

    /// The session's request for a refinement or a later stage.
    fn refined(&self, operation: &'static str) -> Result<SedaRequest, SedaError> {
        self.request.clone().ok_or_else(|| self.stage_error(operation, "a submitted query"))
    }

    /// Sends `request` under the session's budget.
    fn run(&mut self, request: &SedaRequest) -> Result<SedaResponse, SedaError> {
        let ctx = match &self.budget {
            Some(budget) => RequestContext::new(budget.clone()).allow_degraded(),
            None => RequestContext::unlimited(),
        };
        self.reader.execute_governed(request, &ctx)
    }

    /// Runs `CONNECTIONS k` of `request`; on success commits it, its answer
    /// and the stage's new context summary, if any, dropping later stages.
    /// A new context summary is a new query, so it clears the `VIA`
    /// refinements too.
    fn explore(
        &mut self,
        mut request: SedaRequest,
        contexts: Option<SedaResponse>,
    ) -> Result<&TopKResult, SedaError> {
        request.statement = Statement::ConnectionSummary { k: self.k };
        request.connections.clear();
        let mut connections = self.run(&request)?;
        connections.profile.degraded |= contexts.as_ref().is_some_and(|c| c.profile.degraded);
        self.request = Some(request);
        if contexts.is_some() {
            self.via.clear();
        }
        self.contexts = contexts.or(self.contexts.take());
        self.connections = Some(connections);
        self.complete = None;
        self.star_schema = None;
        self.top_k()
    }

    /// Submits (or replaces) the query: computes the context summary, then
    /// the top-k results and their connection summary.  Any earlier
    /// refinements are cleared.
    pub fn submit(&mut self, query: SedaQuery) -> Result<&TopKResult, SedaError> {
        let request = SedaRequest::builder().contexts().query(query).build();
        let contexts = self.run(&request)?;
        self.explore(request, Some(contexts))
    }

    /// Parses and submits a textual query.
    pub fn submit_text(&mut self, query: &str) -> Result<&TopKResult, SedaError> {
        let parsed = SedaQuery::parse(query)?;
        self.submit(parsed)
    }

    /// The current query, if any.
    pub fn query(&self) -> Option<&SedaQuery> {
        self.request.as_ref().and_then(|request| request.query.as_ref())
    }

    /// The latest top-k result.
    pub fn top_k(&self) -> Result<&TopKResult, SedaError> {
        self.connections
            .as_ref()
            .and_then(SedaResponse::top_k)
            .ok_or_else(|| self.stage_error("top_k", "a submitted query"))
    }

    /// The context summary of the current query.
    pub fn context_summary(&self) -> Result<&ContextSummary, SedaError> {
        self.contexts
            .as_ref()
            .and_then(SedaResponse::contexts)
            .ok_or_else(|| self.stage_error("context_summary", "a submitted query"))
    }

    /// The connection summary of the latest top-k result.
    pub fn connection_summary(&self) -> Result<&ConnectionSummary, SedaError> {
        self.connections
            .as_ref()
            .and_then(SedaResponse::connections)
            .ok_or_else(|| self.stage_error("connection_summary", "a submitted query"))
    }

    /// The user's current context selections: per term, the selected paths
    /// in `/a/b/c` notation.
    pub fn selections(&self) -> &[(usize, Vec<String>)] {
        self.request.as_ref().map_or(&[], |request| &request.path_selections)
    }

    /// Selects contexts for a query term and recomputes the top-k results and
    /// the connection summary restricted to those contexts (the feedback loop
    /// of Fig. 6).  A path id the collection does not hold is
    /// [`SedaError::UnknownPath`].
    pub fn select_contexts(
        &mut self,
        term: usize,
        paths: Vec<PathId>,
    ) -> Result<&TopKResult, SedaError> {
        let mut request = self.refined("select_contexts")?;
        let paths = self.engine().paths_text(&paths)?;
        request.path_selections.retain(|(t, _)| *t != term);
        request.path_selections.push((term, paths));
        self.explore(request, None)
    }

    /// Selects the connections that are relevant for the query: the complete
    /// results keep only rows whose pairs connect through one of their
    /// signatures.
    pub fn select_connections(&mut self, connections: Vec<Connection>) -> Result<(), SedaError> {
        if self.request.is_none() {
            return Err(self.stage_error("select_connections", "a submitted query"));
        }
        self.via = connections
            .iter()
            .map(|connection| self.engine().paths_text(&connection.signature))
            .collect::<Result<_, _>>()?;
        self.complete = None;
        self.star_schema = None;
        Ok(())
    }

    /// Materialises the complete (non-top-k) result set for the refined
    /// query.
    pub fn complete_results(&mut self) -> Result<&QueryResultTable, SedaError> {
        let mut request = self.refined("complete_results")?;
        request.statement = Statement::CompleteResults;
        request.connections = self.via.clone();
        let complete = self.run(&request)?;
        self.request = Some(request);
        self.complete = Some(complete);
        self.star_schema = None;
        self.complete()
    }

    /// The materialised complete result.
    pub fn complete(&self) -> Result<&QueryResultTable, SedaError> {
        self.complete
            .as_ref()
            .and_then(SedaResponse::table)
            .ok_or_else(|| self.stage_error("complete", "a materialised result set"))
    }

    /// Derives the star schema from the complete result (computing it first
    /// if necessary).
    pub fn build_cube(&mut self, options: &BuildOptions) -> Result<&StarSchemaBuild, SedaError> {
        if self.complete.is_none() {
            self.complete_results()?;
        }
        let build = self.engine().build_star_schema(self.complete()?, options);
        self.star_schema = Some(build);
        self.star_schema()
    }

    /// The derived star schema.
    fn star_schema(&self) -> Result<&StarSchemaBuild, SedaError> {
        self.star_schema
            .as_ref()
            .ok_or_else(|| self.stage_error("star_schema", "a derived star schema"))
    }

    /// Runs an aggregation over one fact table of the derived star schema.
    pub fn aggregate(&self, fact_table: &str, query: &CubeQuery) -> Result<CubeResult, SedaError> {
        let schema = self
            .star_schema
            .as_ref()
            .ok_or_else(|| self.stage_error("aggregate", "a derived star schema"))?;
        let table = schema
            .schema
            .fact(fact_table)
            .ok_or_else(|| SedaError::UnknownFact(fact_table.to_string()))?;
        Ok(aggregate(table, query)?)
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
                "us2004.xml",
                r#"<country><name>United States</name><year>2004</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>12.5</percentage></item>
                       <item><trade_country>Mexico</trade_country><percentage>10.7</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    #[test]
    fn session_walks_the_figure_6_control_flow() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        assert_eq!(session.stage(), SessionStage::Empty);

        session
            .submit_text(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();
        assert_eq!(session.stage(), SessionStage::Explored);
        assert!(session.top_k().is_ok());
        assert!(session.context_summary().is_ok());
        assert!(session.connection_summary().is_ok());
        assert!(session.last_profile().is_some());

        // Refine the first term to the country-name context.
        let c = e.collection();
        let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        session.select_contexts(0, vec![name]).unwrap();
        assert_eq!(session.selections().len(), 1);

        let complete = session.complete_results().unwrap();
        assert_eq!(complete.len(), 4);
        assert_eq!(session.stage(), SessionStage::Materialized);

        let build = session.build_cube(&BuildOptions::default()).unwrap();
        assert!(build.schema.fact("import-trade-percentage").is_some());
        assert_eq!(session.stage(), SessionStage::Analyzed);

        // Aggregate: average import percentage per partner.
        let cube = session
            .aggregate(
                "import-trade-percentage",
                &CubeQuery::sum(&["import-country"], "import-trade-percentage"),
            )
            .unwrap();
        let china = cube.cell(&["China"]).unwrap();
        assert!((china.value - (15.0 + 12.5)).abs() < 1e-9);
    }

    #[test]
    fn stage_misuse_returns_typed_stage_errors() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        assert!(matches!(
            session.top_k(),
            Err(SedaError::Stage { stage: SessionStage::Empty, .. })
        ));
        assert!(matches!(session.context_summary(), Err(SedaError::Stage { .. })));
        assert!(matches!(session.connection_summary(), Err(SedaError::Stage { .. })));
        assert!(matches!(
            session.select_contexts(0, vec![]),
            Err(SedaError::Stage { operation: "select_contexts", .. })
        ));
        assert!(matches!(session.select_connections(vec![]), Err(SedaError::Stage { .. })));
        assert!(matches!(
            session.complete_results(),
            Err(SedaError::Stage { operation: "complete_results", .. })
        ));
        assert!(matches!(session.complete(), Err(SedaError::Stage { .. })));
        assert!(matches!(session.star_schema(), Err(SedaError::Stage { .. })));
        assert!(matches!(
            session.aggregate("f", &CubeQuery::sum(&[], "x")),
            Err(SedaError::Stage { operation: "aggregate", .. })
        ));
        assert!(matches!(
            session.build_cube(&BuildOptions::default()),
            Err(SedaError::Stage { .. })
        ));
    }

    #[test]
    fn out_of_range_selections_are_unknown_terms() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text("(percentage, *)").unwrap();
        assert_eq!(
            session.select_contexts(5, vec![]).unwrap_err(),
            SedaError::UnknownTerm { term: 5, terms: 1 }
        );
    }

    #[test]
    fn unknown_path_ids_are_unknown_paths_and_change_nothing() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text("(percentage, *)").unwrap();
        let before = session.request().cloned();
        let bogus = PathId(u32::MAX);
        assert_eq!(
            session.select_contexts(0, vec![bogus]).unwrap_err(),
            SedaError::UnknownPath(format!("path id {}", u32::MAX))
        );
        let connection = Connection {
            from_path: bogus,
            to_path: bogus,
            signature: vec![bogus],
            edge_kinds: vec![],
            support: 1,
        };
        assert!(matches!(
            session.select_connections(vec![connection]),
            Err(SedaError::UnknownPath(_))
        ));
        assert_eq!(session.request().cloned(), before);
    }

    #[test]
    fn stage_requests_carry_only_the_clauses_they_read() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text("(trade_country, *) AND (percentage, *)").unwrap();
        let connections = session.connection_summary().unwrap().connections.clone();
        assert!(!connections.is_empty());
        session.select_connections(connections).unwrap();
        let c = e.collection();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        session.select_contexts(1, vec![pct]).unwrap();
        // `CONNECTIONS` reads the selection, not the connections.
        let request = session.request().unwrap();
        assert_eq!(request.statement, Statement::ConnectionSummary { k: session.k });
        assert_eq!((request.path_selections.len(), request.connections.len()), (1, 0));
        assert_eq!(SedaRequest::parse(&request.render()).as_ref(), Ok(request));
        // `RESULTS` reads both: the connections survived the selection.
        session.complete_results().unwrap();
        let request = session.request().unwrap();
        assert_eq!((request.path_selections.len(), request.connections.is_empty()), (1, false));
        assert_eq!(SedaRequest::parse(&request.render()).as_ref(), Ok(request));
        // A new query clears them.
        session.submit_text("(trade_country, *) AND (percentage, *)").unwrap();
        session.complete_results().unwrap();
        assert!(session.request().unwrap().connections.is_empty());
    }

    #[test]
    fn resubmitting_clears_previous_refinements() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text(r#"(percentage, *)"#).unwrap();
        let c = e.collection();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        session.select_contexts(0, vec![pct]).unwrap();
        assert!(!session.selections().is_empty());
        session.submit_text(r#"(trade_country, *)"#).unwrap();
        assert!(session.selections().is_empty());
        assert!(session.complete().is_err());
    }

    #[test]
    fn build_cube_materialises_results_if_needed() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text(r#"(*, "China") AND (percentage, *)"#).unwrap();
        assert!(session.complete().is_err());
        session.build_cube(&BuildOptions::default()).unwrap();
        assert!(session.complete().is_ok());
    }

    #[test]
    fn aggregate_on_missing_fact_is_unknown_fact() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.submit_text(r#"(*, "China") AND (percentage, *)"#).unwrap();
        session.build_cube(&BuildOptions::default()).unwrap();
        assert_eq!(
            session.aggregate("no-such-fact", &CubeQuery::sum(&[], "x")).unwrap_err(),
            SedaError::UnknownFact("no-such-fact".into())
        );
    }

    #[test]
    fn session_budget_degrades_instead_of_erroring() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.set_budget(Some(Budget::unlimited().with_max_sorted_accesses(0)));
        assert!(session.budget.is_some());
        session.submit_text(r#"(trade_country, *)"#).unwrap();
        let profile = session.last_profile().unwrap();
        assert!(profile.degraded, "an exhausted budget must flag the partial answer");
        session.set_budget(None);
        session.submit_text(r#"(trade_country, *)"#).unwrap();
        let profile = session.last_profile().unwrap();
        assert!(!profile.degraded);
        assert!(profile.sorted_accesses > 0);
    }

    #[test]
    fn set_k_bounds_topk_results() {
        let e = engine();
        let mut session = SedaSession::new(&e);
        session.set_k(1);
        let topk = session.submit_text(r#"(trade_country, *)"#).unwrap();
        assert_eq!(topk.tuples.len(), 1);
    }
}
