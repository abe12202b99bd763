//! Query planning: [`SedaRequest`] → [`QueryPlan`].
//!
//! Planning is one stage, **lowering**: [`SedaEngine::prepare`] validates a
//! request against an engine (term indices exist, path strings resolve, twig
//! paths compile, limits hold), resolves every context selection down to
//! [`PathId`]s and [`TermInput`]s and every `VIA` signature down to
//! [`PathId`]s, and records the execution steps.  It makes no decision:
//! every search step is the Threshold-Algorithm rank join, whatever the term
//! count.  [`QueryPlan::explain`] renders the transcript (header plus
//! numbered steps), a pure function of the engine and the request.

use seda_olap::BuildOptions;
use seda_topk::{TermInput, TopKConfig};
use seda_twigjoin::TwigPattern;
use seda_xmlstore::PathId;

use crate::engine::SedaEngine;
use crate::error::SedaError;
use crate::faults;
use crate::query::SedaQuery;
use crate::request::{SedaRequest, Statement};
use crate::summaries::ContextSelections;

/// One step of a [`QueryPlan`], in execution order.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Resolve the allowed contexts of one query term.
    ResolveContexts {
        /// Term index.
        term: usize,
        /// Canonical label of the term.
        label: String,
        /// Number of allowed paths, or `None` when the term is unrestricted.
        paths: Option<usize>,
    },
    /// Sorted access over the per-term posting lists, feeding the
    /// Threshold-Algorithm rank join.
    ThresholdJoin {
        /// Number of result tuples requested.
        k: usize,
        /// Candidate-tuple bound of the join loop.
        candidate_limit: usize,
    },
    /// Build the per-term context buckets from the keyword→path index.
    ContextBuckets {
        /// Number of query terms.
        terms: usize,
    },
    /// Discover pairwise connections between the nodes of the top-k result.
    DiscoverConnections {
        /// Connection-path depth bound.
        max_depth: usize,
    },
    /// Enumerate one concrete context combination per term.
    EnumerateCombinations {
        /// Total number of combinations.
        combinations: usize,
    },
    /// Evaluate same-root combinations as one merged twig pattern.
    TwigEvaluate {
        /// Number of pattern nodes (0 when built per combination).
        pattern_nodes: usize,
        /// Number of output nodes.
        outputs: usize,
    },
    /// Join cross-root combinations through data-graph connectivity.
    GraphJoin {
        /// Connection-path depth bound.
        max_depth: usize,
        /// Row bound of the enumeration.
        limit: usize,
    },
    /// Derive (and instantiate) the star schema from the complete result.
    DeriveStarSchema,
    /// Aggregate one fact table of the derived schema.
    Aggregate {
        /// Fact table name.
        fact: String,
        /// Group-by columns.
        group_by: Vec<String>,
        /// Aggregation function name.
        agg: String,
        /// Measure column.
        measure: String,
    },
}

impl std::fmt::Display for PlanStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanStep::ResolveContexts { term, label, paths } => match paths {
                Some(n) => write!(f, "resolve contexts of term {term} {label}: {n} path(s)"),
                None => write!(f, "resolve contexts of term {term} {label}: unrestricted"),
            },
            PlanStep::ThresholdJoin { k, candidate_limit } => {
                write!(f, "threshold-algorithm rank join: k={k}, candidate limit {candidate_limit}")
            }
            PlanStep::ContextBuckets { terms } => {
                write!(f, "context buckets from the keyword→path index for {terms} term(s)")
            }
            PlanStep::DiscoverConnections { max_depth } => {
                write!(f, "discover pairwise connections (oracle depth ≤ {max_depth})")
            }
            PlanStep::EnumerateCombinations { combinations } => {
                write!(f, "enumerate {combinations} context combination(s)")
            }
            PlanStep::TwigEvaluate { pattern_nodes, outputs } => {
                if *pattern_nodes == 0 {
                    write!(f, "evaluate same-root combinations as merged twig patterns")
                } else {
                    write!(f, "evaluate twig pattern: {pattern_nodes} node(s), {outputs} output(s)")
                }
            }
            PlanStep::GraphJoin { max_depth, limit } => write!(
                f,
                "join cross-root combinations via graph connectivity \
                 (depth ≤ {max_depth}, ≤ {limit} rows)"
            ),
            PlanStep::DeriveStarSchema => write!(f, "derive and instantiate the star schema"),
            PlanStep::Aggregate { fact, group_by, agg, measure } => write!(
                f,
                "aggregate fact {fact:?}: {agg}({measure}) grouped by [{}]",
                group_by.join(", ")
            ),
        }
    }
}

/// A validated, fully resolved execution plan for one [`SedaRequest`]: the
/// statement, its resolved term inputs and context paths, the step list and
/// the search configuration.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Id of the engine that lowered this plan: its term inputs, paths and
    /// (for a prepared statement) materialized lists name that engine's ids.
    pub(crate) engine: u64,
    pub(crate) statement: Statement,
    pub(crate) query: Option<SedaQuery>,
    /// Resolved per-term search inputs (empty for statements without a
    /// search phase).
    pub(crate) term_inputs: Vec<TermInput>,
    /// Resolved per-term candidate context paths of the complete-result
    /// statements (empty for every other statement).
    pub(crate) term_paths: Vec<Vec<PathId>>,
    /// Resolved `VIA` connection signatures, read by the complete-result
    /// statements.
    pub(crate) connections: Vec<Vec<PathId>>,
    /// Compiled twig pattern of a [`Statement::Twig`] request.
    pub(crate) pattern: Option<TwigPattern>,
    pub(crate) cube_options: BuildOptions,
    pub(crate) steps: Vec<PlanStep>,
    /// Per-plan search configuration (k is folded in at lowering).
    pub(crate) topk: TopKConfig,
}

impl QueryPlan {
    /// The statement this plan executes.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The execution steps, in order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The search configuration this plan executes with: the engine's
    /// [`TopKConfig`] at the statement's `k`.
    pub fn search_config(&self) -> &TopKConfig {
        &self.topk
    }

    /// Renders the plan transcript: the statement header and the numbered
    /// execution steps.
    pub fn explain(&self) -> String {
        let mut out = format!("plan: {}", self.statement.name());
        match &self.query {
            Some(query) => out.push_str(&format!(" over {} term(s): {query}\n", query.len())),
            None => out.push('\n'),
        }
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {}. {step}\n", i + 1));
        }
        out
    }
}

impl SedaEngine {
    /// Resolves a `/a/b/c` path string against the collection.
    pub fn resolve_path(&self, path: &str) -> Result<PathId, SedaError> {
        self.collection()
            .paths()
            .get_str(self.collection().symbols(), path)
            .ok_or_else(|| SedaError::UnknownPath(path.to_string()))
    }

    fn resolve_paths(&self, paths: &[String]) -> Result<Vec<PathId>, SedaError> {
        paths.iter().map(|path| self.resolve_path(path)).collect()
    }

    /// Renders path ids in `/a/b/c` notation — the inverse of
    /// [`SedaEngine::resolve_path`]; an id the collection does not hold is
    /// [`SedaError::UnknownPath`].
    pub(crate) fn paths_text(&self, paths: &[PathId]) -> Result<Vec<String>, SedaError> {
        let collection = self.collection();
        let text = |&path: &PathId| match path.index() < collection.paths().len() {
            true => Ok(collection.path_string(path)),
            false => Err(SedaError::UnknownPath(format!("path id {}", path.index()))),
        };
        paths.iter().map(text).collect()
    }

    /// Lowers a request into a [`QueryPlan`]: validates it, resolves every
    /// context selection and records the execution steps.  The plan runs
    /// only through this engine's readers; any other reader refuses it with
    /// [`SedaError::ForeignPlan`].
    ///
    /// This is the one compile path; [`crate::SedaReader::prepare`] wraps its
    /// output into a reusable [`crate::PreparedStatement`].
    ///
    /// Preparing is read-only and touches no scratch state, so it is safe
    /// from any thread.  Errors cover the whole [`SedaError`] taxonomy:
    /// missing query terms, out-of-range term selections, unresolvable
    /// paths, uncompilable twig expressions, and combination counts beyond
    /// the configured limits.
    pub fn prepare(&self, request: &SedaRequest) -> Result<QueryPlan, SedaError> {
        faults::fire("plan")?;
        let config = self.config();
        let statement = &request.statement;
        let mut plan = QueryPlan {
            engine: self.id(),
            statement: statement.clone(),
            query: None,
            term_inputs: Vec::new(),
            term_paths: Vec::new(),
            connections: Vec::new(),
            pattern: None,
            cube_options: request.cube_options.clone(),
            steps: Vec::new(),
            topk: config.topk.clone(),
        };

        // Twig statements stand alone: no query terms, no selections.
        if let Statement::Twig { path } = statement {
            let pattern = TwigPattern::parse(path)?;
            // Every step label must exist in the collection's symbol table —
            // a label no document uses cannot match, so a typo anywhere in
            // the path surfaces as UnknownPath naming the offending step
            // rather than as a silently empty result.
            if !self.collection().is_empty() {
                for idx in pattern.node_indices() {
                    let label = &pattern.node(idx).label;
                    if self.collection().symbols().get(label).is_none() {
                        return Err(SedaError::UnknownPath(format!(
                            "{path} (unknown tag {label:?})"
                        )));
                    }
                }
            }
            plan.steps.push(PlanStep::TwigEvaluate {
                pattern_nodes: pattern.len(),
                outputs: pattern.output_nodes().len(),
            });
            plan.pattern = Some(pattern);
            return Ok(plan);
        }

        let query = request
            .query
            .as_ref()
            .filter(|query| !query.is_empty())
            .ok_or(SedaError::MissingQuery { statement: statement.name() })?;

        let mut selections = ContextSelections::none();
        for (term, paths) in &request.path_selections {
            if *term >= query.len() {
                return Err(SedaError::UnknownTerm { term: *term, terms: query.len() });
            }
            selections.select(*term, self.resolve_paths(paths)?);
        }
        plan.connections = request
            .connections
            .iter()
            .map(|signature| self.resolve_paths(signature))
            .collect::<Result<_, _>>()?;

        // Per-term contexts are resolved exactly once per plan: as search
        // inputs for the top-k statements, as candidate path sets for the
        // complete-result statements, and not at all for CONTEXTS (the
        // bucket computation does its own index probes).
        match statement {
            Statement::TopK { k } | Statement::ConnectionSummary { k } => {
                plan.topk.k = *k;
                plan.term_inputs = self.term_inputs(query, &selections);
                for (i, (term, input)) in query.terms.iter().zip(&plan.term_inputs).enumerate() {
                    plan.steps.push(PlanStep::ResolveContexts {
                        term: i,
                        label: term.label(),
                        paths: input.allowed_paths.as_ref().map(Vec::len),
                    });
                }
                plan.steps.push(PlanStep::ThresholdJoin {
                    k: *k,
                    candidate_limit: plan.topk.candidate_limit,
                });
                if matches!(statement, Statement::ConnectionSummary { .. }) {
                    plan.steps
                        .push(PlanStep::DiscoverConnections { max_depth: config.topk.max_depth });
                }
            }
            Statement::ContextSummary => {
                plan.steps.push(PlanStep::ContextBuckets { terms: query.len() });
            }
            Statement::CompleteResults | Statement::Cube { .. } => {
                plan.term_paths = self.term_paths(query, &selections);
                for (i, (term, paths)) in query.terms.iter().zip(&plan.term_paths).enumerate() {
                    plan.steps.push(PlanStep::ResolveContexts {
                        term: i,
                        label: term.label(),
                        paths: Some(paths.len()),
                    });
                }
                let combinations = self.context_combinations_of(&plan.term_paths)?;
                plan.steps.push(PlanStep::EnumerateCombinations { combinations });
                plan.steps.push(PlanStep::TwigEvaluate { pattern_nodes: 0, outputs: 0 });
                plan.steps.push(PlanStep::GraphJoin {
                    max_depth: config.topk.max_depth,
                    limit: config.complete_result_limit,
                });
                if let Statement::Cube { fact, group_by, agg, measure } = statement {
                    plan.steps.push(PlanStep::DeriveStarSchema);
                    plan.steps.push(PlanStep::Aggregate {
                        fact: fact.clone(),
                        group_by: group_by.clone(),
                        agg: crate::request::agg_name(*agg).to_string(),
                        measure: measure.clone().unwrap_or_else(|| fact.clone()),
                    });
                }
            }
            Statement::Twig { .. } => {
                return Err(SedaError::Internal("twig statements are planned above".to_string()))
            }
        }
        plan.query = Some(query.clone());
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use seda_olap::Registry;
    use seda_xmlstore::parse_collection;

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    #[test]
    fn plans_resolve_contexts_and_explain() {
        let e = engine();
        let req =
            SedaRequest::parse("TOPK 5 FOR (name, *) AND (percentage, *) WITH 0 IN /country/name")
                .unwrap();
        let plan = e.prepare(&req).unwrap();
        assert_eq!(plan.term_inputs.len(), 2);
        assert_eq!(plan.term_inputs[0].allowed_paths.as_ref().map(Vec::len), Some(1));
        let transcript = plan.explain();
        assert!(transcript.contains("plan: TOPK"), "{transcript}");
        assert!(transcript.contains("1. resolve contexts of term 0"), "{transcript}");
        assert!(transcript.contains("threshold-algorithm rank join: k=5"), "{transcript}");
    }

    #[test]
    fn every_term_count_plans_the_rank_join() {
        let e = engine();
        let candidate_limit = e.config().topk.candidate_limit;
        for q in ["(name, *)", "(name, *) AND (percentage, *)"] {
            let plan = e.prepare(&SedaRequest::parse(&format!("TOPK 5 FOR {q}")).unwrap()).unwrap();
            assert_eq!(
                plan.steps().last(),
                Some(&PlanStep::ThresholdJoin { k: 5, candidate_limit }),
                "{q}"
            );
            assert!(plan.explain().contains("threshold-algorithm rank join: k=5"), "{q}");
        }
    }

    #[test]
    fn a_repeated_selection_path_is_resolved_once() {
        let e = engine();
        let q = "(name, *) AND (percentage, *)";
        for shape in
            ["TOPK 5", "CONNECTIONS 5", "RESULTS", "CUBE import-trade-percentage BY import-country"]
        {
            let once = SedaRequest::parse(&format!("{shape} FOR {q} WITH 0 IN /country/name"));
            let twice = SedaRequest::parse(&format!(
                "{shape} FOR {q} WITH 0 IN /country/name|/country/name"
            ));
            let once = e.prepare(&once.unwrap()).unwrap().explain();
            assert!(once.contains("resolve contexts of term 0 (name, *): 1 path(s)"), "{once}");
            assert_eq!(e.prepare(&twice.unwrap()).unwrap().explain(), once, "{shape}");
        }
        // Builder-made selections resolve through the same place, and the
        // first occurrence keeps its position.
        let name = e.resolve_path("/country/name").unwrap();
        let year = e.resolve_path("/country/year").unwrap();
        let req = SedaRequest::builder()
            .query(SedaQuery::parse("(*, 2006)").unwrap())
            .select_paths(0, ["/country/year", "/country/name", "/country/year"])
            .complete_results()
            .build();
        assert_eq!(e.prepare(&req).unwrap().term_paths, vec![vec![year, name]]);
    }

    #[test]
    fn planning_validates_terms_paths_and_twigs() {
        let e = engine();
        let req = SedaRequest::parse("TOPK FOR (name, *) WITH 7 IN /country/name").unwrap();
        assert_eq!(e.prepare(&req).unwrap_err(), SedaError::UnknownTerm { term: 7, terms: 1 });

        let req = SedaRequest::parse("TOPK FOR (name, *) WITH 0 IN /no/such/path").unwrap();
        assert_eq!(e.prepare(&req).unwrap_err(), SedaError::UnknownPath("/no/such/path".into()));

        let req = SedaRequest::builder().contexts().build();
        assert_eq!(e.prepare(&req).unwrap_err(), SedaError::MissingQuery { statement: "CONTEXTS" });

        let req = SedaRequest::parse("TWIG /nowhere/name").unwrap();
        let err = e.prepare(&req).unwrap_err();
        assert!(
            matches!(&err, SedaError::UnknownPath(p) if p.contains("unknown tag \"nowhere\"")),
            "{err}"
        );
        // Unknown labels deeper in the path are caught too, naming the step.
        let req = SedaRequest::parse("TWIG /country/nonexistent_tag").unwrap();
        let err = e.prepare(&req).unwrap_err();
        assert!(
            matches!(&err, SedaError::UnknownPath(p) if p.contains("nonexistent_tag")),
            "{err}"
        );

        let req = SedaRequest::builder().twig("not-a-path").build();
        assert!(matches!(e.prepare(&req).unwrap_err(), SedaError::Twig(_)));
    }

    #[test]
    fn cube_plans_extend_the_complete_result_pipeline() {
        let e = engine();
        let req = SedaRequest::parse(
            "CUBE import-trade-percentage BY import-country FOR \
             (*, \"United States\") AND (trade_country, *) AND (percentage, *)",
        )
        .unwrap();
        let plan = e.prepare(&req).unwrap();
        let transcript = plan.explain();
        assert!(transcript.contains("enumerate"), "{transcript}");
        assert!(transcript.contains("derive and instantiate the star schema"), "{transcript}");
        assert!(
            transcript.contains("sum(import-trade-percentage) grouped by [import-country]"),
            "{transcript}"
        );
    }
}
