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
//! The session is a thin stateful shell over the unified facade: it owns a
//! [`crate::SedaReader`] (so repeated queries reuse one scratch and never
//! contend on the engine), and every stage-dependent operation returns a
//! typed [`SedaError`] — stage misuse is [`SedaError::Stage`], never a bare
//! `None`.

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
use crate::response::ExecProfile;
use crate::summaries::{ConnectionSummary, ContextSelections, ContextSummary};

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
    query: Option<SedaQuery>,
    selections: ContextSelections,
    chosen_connections: Vec<Connection>,
    top_k: Option<TopKResult>,
    context_summary: Option<ContextSummary>,
    connection_summary: Option<ConnectionSummary>,
    complete: Option<QueryResultTable>,
    star_schema: Option<StarSchemaBuild>,
    last_profile: Option<ExecProfile>,
    k: usize,
    budget: Option<Budget>,
    stage: SessionStage,
}

impl<'a> SedaSession<'a> {
    /// Opens a session over an engine.
    pub fn new(engine: &'a SedaEngine) -> Self {
        SedaSession {
            reader: engine.reader(),
            query: None,
            selections: ContextSelections::none(),
            chosen_connections: Vec::new(),
            top_k: None,
            context_summary: None,
            connection_summary: None,
            complete: None,
            star_schema: None,
            last_profile: None,
            k: engine.config().topk.k,
            budget: None,
            stage: SessionStage::Empty,
        }
    }

    /// The engine the session runs over.
    pub fn engine(&self) -> &'a SedaEngine {
        self.reader.engine()
    }

    /// Current stage in the control flow.
    pub fn stage(&self) -> SessionStage {
        self.stage
    }

    /// Sets the number of top-k results to retrieve per iteration.
    pub fn set_k(&mut self, k: usize) {
        self.k = k.max(1);
    }

    /// Sets (or clears) the per-search [`Budget`] of this session.  With a
    /// budget in place, every subsequent top-k search runs governed **with
    /// degraded responses allowed**: an interactive explorer prefers a
    /// flagged partial answer over an error, and the degradation is visible
    /// through [`SedaSession::last_profile`]'s `degraded` flag.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
    }

    /// The session's current search budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The [`ExecProfile`] of the last search the session ran, if any.
    pub fn last_profile(&self) -> Option<&ExecProfile> {
        self.last_profile.as_ref()
    }

    fn request_context(&self) -> RequestContext {
        match &self.budget {
            Some(budget) => RequestContext::new(budget.clone()).allow_degraded(),
            None => RequestContext::unlimited(),
        }
    }

    fn stage_error(&self, operation: &'static str, required: &'static str) -> SedaError {
        SedaError::Stage { operation, required, stage: self.stage }
    }

    /// Submits (or replaces) the query: computes top-k results, the context
    /// summary and the connection summary.  Any earlier refinements are
    /// cleared.
    pub fn submit(&mut self, query: SedaQuery) -> Result<&TopKResult, SedaError> {
        self.selections = ContextSelections::none();
        self.chosen_connections.clear();
        self.complete = None;
        self.star_schema = None;
        self.context_summary = Some(self.reader.context_summary(&query));
        let (top_k, profile) = self.reader.top_k_governed(
            &query,
            &self.selections,
            self.k,
            &self.request_context(),
        )?;
        self.connection_summary = Some(self.reader.connection_summary(&top_k));
        self.last_profile = Some(profile);
        self.top_k = Some(top_k);
        self.query = Some(query);
        self.stage = SessionStage::Explored;
        Ok(self.top_k.as_ref().expect("invariant: the top-k result was just materialised"))
    }

    /// Parses and submits a textual query.
    pub fn submit_text(&mut self, query: &str) -> Result<&TopKResult, SedaError> {
        let parsed = SedaQuery::parse(query)?;
        self.submit(parsed)
    }

    /// The current query, if any.
    pub fn query(&self) -> Option<&SedaQuery> {
        self.query.as_ref()
    }

    /// The latest top-k result.
    pub fn top_k(&self) -> Result<&TopKResult, SedaError> {
        self.top_k.as_ref().ok_or_else(|| self.stage_error("top_k", "a submitted query"))
    }

    /// The context summary of the current query.
    pub fn context_summary(&self) -> Result<&ContextSummary, SedaError> {
        self.context_summary
            .as_ref()
            .ok_or_else(|| self.stage_error("context_summary", "a submitted query"))
    }

    /// The connection summary of the latest top-k result.
    pub fn connection_summary(&self) -> Result<&ConnectionSummary, SedaError> {
        self.connection_summary
            .as_ref()
            .ok_or_else(|| self.stage_error("connection_summary", "a submitted query"))
    }

    /// The user's current context selections.
    pub fn selections(&self) -> &ContextSelections {
        &self.selections
    }

    /// Selects contexts for a query term and recomputes the top-k results and
    /// the connection summary restricted to those contexts (the feedback loop
    /// of Fig. 6).
    pub fn select_contexts(
        &mut self,
        term: usize,
        paths: Vec<PathId>,
    ) -> Result<&TopKResult, SedaError> {
        let query = self
            .query
            .clone()
            .ok_or_else(|| self.stage_error("select_contexts", "a submitted query"))?;
        if term >= query.len() {
            return Err(SedaError::UnknownTerm { term, terms: query.len() });
        }
        self.selections.select(term, paths);
        let (top_k, profile) = self.reader.top_k_governed(
            &query,
            &self.selections,
            self.k,
            &self.request_context(),
        )?;
        self.connection_summary = Some(self.reader.connection_summary(&top_k));
        self.last_profile = Some(profile);
        self.top_k = Some(top_k);
        self.complete = None;
        self.star_schema = None;
        self.stage = SessionStage::Explored;
        Ok(self.top_k.as_ref().expect("invariant: the top-k result was just materialised"))
    }

    /// Selects the connections that are relevant for the query.
    pub fn select_connections(&mut self, connections: Vec<Connection>) -> Result<(), SedaError> {
        if self.query.is_none() {
            return Err(self.stage_error("select_connections", "a submitted query"));
        }
        self.chosen_connections = connections;
        self.complete = None;
        self.star_schema = None;
        Ok(())
    }

    /// The currently selected connections.
    pub fn chosen_connections(&self) -> &[Connection] {
        &self.chosen_connections
    }

    /// Materialises the complete (non-top-k) result set for the refined
    /// query.
    pub fn complete_results(&mut self) -> Result<&QueryResultTable, SedaError> {
        let query = self
            .query
            .clone()
            .ok_or_else(|| self.stage_error("complete_results", "a submitted query"))?;
        let result =
            self.reader.complete_results(&query, &self.selections, &self.chosen_connections)?;
        self.complete = Some(result);
        self.stage = SessionStage::Materialized;
        Ok(self.complete.as_ref().expect("invariant: the complete result was just materialised"))
    }

    /// The materialised complete result.
    pub fn complete(&self) -> Result<&QueryResultTable, SedaError> {
        self.complete
            .as_ref()
            .ok_or_else(|| self.stage_error("complete", "a materialised result set"))
    }

    /// Derives the star schema from the complete result (computing it first
    /// if necessary).
    pub fn build_cube(&mut self, options: &BuildOptions) -> Result<&StarSchemaBuild, SedaError> {
        if self.complete.is_none() {
            self.complete_results()?;
        }
        let result =
            self.complete.as_ref().expect("invariant: the complete result was materialised above");
        let build = self.engine().build_star_schema(result, options);
        self.star_schema = Some(build);
        self.stage = SessionStage::Analyzed;
        Ok(self.star_schema.as_ref().expect("invariant: the star schema was just materialised"))
    }

    /// The derived star schema.
    pub fn star_schema(&self) -> Result<&StarSchemaBuild, SedaError> {
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
        assert!(session.budget().is_some());
        session.submit_text(r#"(trade_country, *)"#).unwrap();
        let profile = session.last_profile().unwrap();
        assert!(profile.degraded, "an exhausted budget must flag the partial answer");
        session.set_budget(None);
        session.submit_text(r#"(trade_country, *)"#).unwrap();
        assert!(!session.last_profile().unwrap().degraded);
        assert!(session.last_profile().unwrap().budget_spent > 0);
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
