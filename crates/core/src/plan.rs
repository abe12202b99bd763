//! Query planning: [`SedaRequest`] → [`QueryPlan`].
//!
//! Planning is a three-stage compile.  The **lowering** stage validates a
//! request against an engine (term indices exist, path strings resolve, twig
//! paths compile, limits hold), resolves every context selection down to
//! [`PathId`]s and [`TermInput`]s, and records the execution steps — the
//! typed logical plan.  [`SedaEngine::prepare`] then runs the registered
//! **rewrite passes** of [`crate::optimize`] over it and **compiles** the
//! optimized plan into the [`PlanProgram`] instruction stream the reader's
//! interpreter executes.  [`QueryPlan::explain`] renders the transcript —
//! steps, pass-by-pass rewrite trail and program listing.

use seda_dataguide::Connection;
use seda_olap::BuildOptions;
use seda_topk::{SearchStrategy, TermInput, TopKConfig};
use seda_twigjoin::TwigPattern;
use seda_xmlstore::PathId;

use crate::engine::SedaEngine;
use crate::error::SedaError;
use crate::optimize::{self, PlanProgram};
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
    /// Degenerate one-term search rewritten by the optimizer's
    /// single-keyword pass: a direct scan of the sorted posting prefix.
    SingleTermScan {
        /// Number of result tuples requested.
        k: usize,
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
            PlanStep::SingleTermScan { k } => {
                write!(f, "single-term sorted-prefix scan: k={k}")
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

/// A validated, fully resolved and optimized execution plan for one
/// [`SedaRequest`]: the typed logical plan the lowering produced (statement,
/// resolved term inputs, step list, search configuration), the rewrite trail
/// the optimizer's passes left behind, and the compiled [`PlanProgram`] the
/// reader interprets.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub(crate) statement: Statement,
    pub(crate) query: Option<SedaQuery>,
    /// All selections (programmatic ids plus resolved path strings), merged.
    pub(crate) selections: ContextSelections,
    /// Resolved per-term search inputs (empty for statements without a
    /// search phase).
    pub(crate) term_inputs: Vec<TermInput>,
    pub(crate) connections: Vec<Connection>,
    /// Compiled twig pattern of a [`Statement::Twig`] request.
    pub(crate) pattern: Option<TwigPattern>,
    pub(crate) cube_options: BuildOptions,
    pub(crate) steps: Vec<PlanStep>,
    /// Per-plan search configuration (k is folded in at lowering).
    pub(crate) topk: TopKConfig,
    /// Search strategy the single-keyword pass may rewrite.
    pub(crate) strategy: SearchStrategy,
    /// Per-term `(restricted, total)` postings estimates the pushdown pass
    /// computes and the cost model consumes.
    pub(crate) term_estimates: Vec<(usize, usize)>,
    /// Pass-by-pass rewrite trail, one line per registered pass.
    pub(crate) trail: Vec<String>,
    /// The compiled instruction stream.
    pub(crate) program: PlanProgram,
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

    /// The compiled instruction stream the reader's interpreter executes.
    pub fn program(&self) -> &PlanProgram {
        &self.program
    }

    /// The pass-by-pass rewrite trail: one `"<pass>: <what changed>"` line
    /// per registered optimizer pass (`"<pass>: unchanged"` when a pass did
    /// not apply).
    pub fn rewrite_trail(&self) -> &[String] {
        &self.trail
    }

    /// The search configuration this plan executes with, after optimization.
    pub fn search_config(&self) -> &TopKConfig {
        &self.topk
    }

    /// Renders the plan transcript: the statement header, the numbered
    /// execution steps, the optimizer's rewrite trail and the compiled
    /// program listing.
    pub fn explain(&self) -> String {
        let mut out = format!("plan: {}", self.statement.name());
        match &self.query {
            Some(query) => out.push_str(&format!(" over {} term(s): {query}\n", query.len())),
            None => out.push('\n'),
        }
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!("  {}. {step}\n", i + 1));
        }
        if !self.trail.is_empty() {
            out.push_str("  rewrites:\n");
            for line in &self.trail {
                out.push_str(&format!("    - {line}\n"));
            }
        }
        if !self.program.is_empty() {
            out.push_str("  program:\n");
            out.push_str(&self.program.render());
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

    /// Compiles, validates and optimizes a request into a [`QueryPlan`]:
    /// lowering (validation + context resolution), the registered rewrite
    /// passes of [`crate::optimize`], and compilation into the
    /// [`PlanProgram`] the reader interprets.
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
        let mut plan = self.lower(request)?;
        plan.trail = optimize::run_passes(&mut plan, self);
        plan.program = optimize::compile(&plan);
        Ok(plan)
    }

    /// The lowering stage: validates the request and produces the typed
    /// logical plan (resolved inputs + step list) that the rewrite passes
    /// transform.
    fn lower(&self, request: &SedaRequest) -> Result<QueryPlan, SedaError> {
        let mut steps = Vec::new();
        let statement = request.statement.clone();

        // Twig statements stand alone: no query terms, no selections.
        if let Statement::Twig { path } = &statement {
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
            steps.push(PlanStep::TwigEvaluate {
                pattern_nodes: pattern.len(),
                outputs: pattern.output_nodes().len(),
            });
            return Ok(QueryPlan {
                statement,
                query: None,
                selections: ContextSelections::none(),
                term_inputs: Vec::new(),
                connections: Vec::new(),
                pattern: Some(pattern),
                cube_options: request.cube_options.clone(),
                steps,
                topk: self.config().topk.clone(),
                strategy: SearchStrategy::default(),
                term_estimates: Vec::new(),
                trail: Vec::new(),
                program: PlanProgram::default(),
            });
        }

        let query =
            request.query.clone().ok_or(SedaError::MissingQuery { statement: statement.name() })?;
        if query.is_empty() {
            return Err(SedaError::MissingQuery { statement: statement.name() });
        }

        // Merge programmatic selections with resolved path-string selections
        // (strings win for a term both specify, matching builder order).
        let mut selections = ContextSelections::none();
        for (term, paths) in request.selections.iter() {
            if term >= query.len() {
                return Err(SedaError::UnknownTerm { term, terms: query.len() });
            }
            selections.select(term, paths.to_vec());
        }
        for (term, paths) in &request.path_selections {
            if *term >= query.len() {
                return Err(SedaError::UnknownTerm { term: *term, terms: query.len() });
            }
            let resolved: Vec<PathId> =
                paths.iter().map(|p| self.resolve_path(p)).collect::<Result<_, _>>()?;
            selections.select(*term, resolved);
        }

        let config = self.config();
        let needs_search =
            matches!(statement, Statement::TopK { .. } | Statement::ConnectionSummary { .. });

        // Per-term contexts are resolved exactly once per plan: as search
        // inputs for the top-k statements, as candidate path sets for the
        // complete-result statements, and not at all for CONTEXTS (the
        // bucket computation does its own index probes).
        let term_inputs = if needs_search {
            let inputs = self.term_inputs(&query, &selections);
            for (i, (term, input)) in query.terms.iter().zip(inputs.iter()).enumerate() {
                steps.push(PlanStep::ResolveContexts {
                    term: i,
                    label: term.label(),
                    paths: input.allowed_paths.as_ref().map(Vec::len),
                });
            }
            inputs
        } else {
            Vec::new()
        };

        match &statement {
            Statement::TopK { k } => {
                steps.push(PlanStep::ThresholdJoin {
                    k: *k,
                    candidate_limit: config.topk.candidate_limit,
                });
            }
            Statement::ContextSummary => {
                steps.push(PlanStep::ContextBuckets { terms: query.len() });
            }
            Statement::ConnectionSummary { k } => {
                steps.push(PlanStep::ThresholdJoin {
                    k: *k,
                    candidate_limit: config.topk.candidate_limit,
                });
                steps
                    .push(PlanStep::DiscoverConnections { max_depth: config.connection_max_depth });
            }
            Statement::CompleteResults | Statement::Cube { .. } => {
                let term_paths = self.term_paths(&query, &selections);
                for (i, (term, paths)) in query.terms.iter().zip(term_paths.iter()).enumerate() {
                    steps.push(PlanStep::ResolveContexts {
                        term: i,
                        label: term.label(),
                        paths: Some(paths.len()),
                    });
                }
                let combinations = self.context_combinations_of(&term_paths)?;
                steps.push(PlanStep::EnumerateCombinations { combinations });
                steps.push(PlanStep::TwigEvaluate { pattern_nodes: 0, outputs: 0 });
                steps.push(PlanStep::GraphJoin {
                    max_depth: config.connection_max_depth,
                    limit: config.complete_result_limit,
                });
                if let Statement::Cube { fact, group_by, agg, measure } = &statement {
                    steps.push(PlanStep::DeriveStarSchema);
                    steps.push(PlanStep::Aggregate {
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

        let mut topk = config.topk.clone();
        if let Statement::TopK { k } | Statement::ConnectionSummary { k } = &statement {
            topk.k = *k;
        }
        Ok(QueryPlan {
            statement,
            query: Some(query),
            selections,
            term_inputs,
            connections: request.connections.clone(),
            pattern: None,
            cube_options: request.cube_options.clone(),
            steps,
            topk,
            strategy: SearchStrategy::default(),
            term_estimates: Vec::new(),
            trail: Vec::new(),
            program: PlanProgram::default(),
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
