//! Query planning: a [`SedaRequest`] lowered to its plan, the one record of
//! the request that the reader's executor runs and `EXPLAIN` renders.
//!
//! Planning is one stage, **lowering** (`SedaEngine::prepare`, reached only
//! through [`crate::SedaReader`]): it validates a request against an engine
//! (term indices exist, path strings resolve, twig paths compile, limits
//! hold), resolves every context selection down to [`PathId`]s and
//! [`TermInput`]s and every `VIA` signature down to [`PathId`]s.  It makes
//! no decision: every search step is the Threshold-Algorithm rank join,
//! whatever the term count.  The plan is crate-private; its transcript (a
//! header plus numbered steps, computed from the plan's own fields when it
//! is rendered) is the answer of the request's `EXPLAIN` form.

use seda_datagraph::SEARCH_DEPTH;
use seda_olap::BuildOptions;
use seda_topk::{SearchLimits, TermInput};
use seda_twigjoin::TwigPattern;
use seda_xmlstore::{PathId, Symbol};

use crate::engine::SedaEngine;
use crate::error::SedaError;
use crate::faults;
use crate::query::SedaQuery;
use crate::request::{agg_name, SedaRequest, Statement};
use crate::summaries::ContextSelections;

/// A validated, fully resolved execution plan for one [`SedaRequest`]: the
/// statement and the inputs it runs on, each held once.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    /// Id of the engine that lowered this plan: its term inputs, paths and
    /// (for a prepared statement) materialized lists name that engine's ids.
    pub(crate) engine: u64,
    /// The statement; the `k` of a `TOPK` / `CONNECTIONS` lives here alone.
    pub(crate) statement: Statement,
    /// The query terms (empty for `TWIG`, the one statement without them).
    pub(crate) query: SedaQuery,
    /// Resolved per-term search inputs of `TOPK` and `CONNECTIONS`.
    pub(crate) term_inputs: Vec<TermInput>,
    /// Resolved per-term candidate context paths of `RESULTS` and `CUBE`.
    pub(crate) term_paths: Vec<Vec<PathId>>,
    /// The root label of each of `term_paths`: a combination whose paths
    /// share one root is evaluated as one twig, any other is joined.
    pub(crate) roots: Vec<Vec<Symbol>>,
    /// Resolved `VIA` connection signatures of `RESULTS` and `CUBE`.
    pub(crate) connections: Vec<Vec<PathId>>,
    /// Compiled pattern of a `TWIG` (empty for every other statement).
    pub(crate) pattern: TwigPattern,
    pub(crate) cube_options: BuildOptions,
    /// The engine's bound on the context combinations and rows of R(q).
    pub(crate) complete_result_limit: usize,
}

impl QueryPlan {
    /// Number of per-term context combinations R(q) enumerates: the product
    /// of the term path counts (saturating), 0 when a term has no path.
    pub(crate) fn combinations(&self) -> usize {
        match self.term_paths.iter().any(Vec::is_empty) {
            true => 0,
            false => self.term_paths.iter().fold(1, |n, paths| n.saturating_mul(paths.len())),
        }
    }

    /// True when the paths `combination` picks (one index per term) share one
    /// root label, so R(q) evaluates them as one twig.
    pub(crate) fn same_root(&self, combination: &[usize]) -> bool {
        let mut roots = combination.iter().zip(&self.roots).map(|(&i, roots)| roots[i]);
        let first = roots.next();
        roots.all(|root| Some(root) == first)
    }

    /// How many combinations [`QueryPlan::same_root`] holds for: Σ over the
    /// root labels of Π over the terms of the term's paths under that label.
    fn same_root_combinations(&self) -> usize {
        let mut labels = self.roots.first().cloned().unwrap_or_default();
        labels.sort_unstable();
        labels.dedup();
        let under =
            |label: &Symbol, roots: &Vec<Symbol>| roots.iter().filter(|r| *r == label).count();
        labels
            .iter()
            .map(|label| self.roots.iter().map(|roots| under(label, roots)).product::<usize>())
            .sum()
    }

    /// Renders the plan transcript: the statement header and the numbered
    /// steps the executor runs, each computed from the plan's fields.
    pub(crate) fn explain(&self) -> String {
        let mut steps = Vec::new();
        // A TOPK / CONNECTIONS resolves term inputs (a term may stay
        // unrestricted), a RESULTS / CUBE term paths; no plan holds both.
        let inputs =
            self.term_inputs.iter().map(|input| input.allowed_paths.as_ref().map(Vec::len));
        let paths = self.term_paths.iter().map(|paths| Some(paths.len()));
        for ((i, term), paths) in self.query.terms.iter().enumerate().zip(inputs.chain(paths)) {
            steps.push(match paths {
                Some(n) => format!("resolve contexts of term {i} {term}: {n} path(s)"),
                None => format!("resolve contexts of term {i} {term}: unrestricted"),
            });
        }
        match &self.statement {
            Statement::TopK { k } | Statement::ConnectionSummary { k } => {
                steps.push(format!(
                    "threshold-algorithm rank join: k={k}, candidate limit {}",
                    SearchLimits::CANDIDATE_GUARD
                ));
                if let Statement::ConnectionSummary { .. } = self.statement {
                    steps.push(format!(
                        "discover pairwise connections (oracle depth ≤ {SEARCH_DEPTH})"
                    ));
                }
            }
            Statement::ContextSummary => steps.push(format!(
                "context buckets from the keyword→path index for {} term(s)",
                self.query.len()
            )),
            Statement::Twig { .. } => steps.push(format!(
                "evaluate twig pattern: {} node(s), {} output(s)",
                self.pattern.len(),
                self.pattern.output_nodes().len()
            )),
            Statement::CompleteResults | Statement::Cube { .. } => {
                let combinations = self.combinations();
                steps.push(format!("enumerate {combinations} context combination(s)"));
                let same_root = if combinations == 0 { 0 } else { self.same_root_combinations() };
                if same_root > 0 {
                    steps.push(format!(
                        "evaluate {same_root} same-root combination(s) as merged twig patterns"
                    ));
                }
                if combinations > same_root {
                    steps.push(format!(
                        "join {} cross-root combination(s) via graph connectivity \
                         (depth ≤ {SEARCH_DEPTH}, ≤ {} rows)",
                        combinations - same_root,
                        self.complete_result_limit
                    ));
                }
                if let Statement::Cube { fact, group_by, agg, measure } = &self.statement {
                    steps.push("derive and instantiate the star schema".to_string());
                    steps.push(format!(
                        "aggregate fact {fact:?}: {}({}) grouped by [{}]",
                        agg_name(*agg),
                        measure.as_ref().unwrap_or(fact),
                        group_by.join(", ")
                    ));
                }
            }
        }
        let mut out = format!("plan: {}", self.statement.name());
        if !self.query.is_empty() {
            out.push_str(&format!(" over {} term(s): {}", self.query.len(), self.query));
        }
        out.push('\n');
        for (i, step) in steps.iter().enumerate() {
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

    /// Lowers a request into its plan: validates it and resolves every
    /// context selection.  The plan runs only through this engine's readers;
    /// any other reader refuses it with [`SedaError::ForeignPlan`].
    ///
    /// This is the one compile path, reached only through the reader's
    /// panic boundary: [`crate::SedaReader::execute`] and
    /// [`crate::SedaReader::prepare`].  Preparing is read-only and touches
    /// no scratch state.  Errors cover the whole [`SedaError`] taxonomy:
    /// missing query terms, out-of-range term selections, unresolvable
    /// paths, uncompilable twig expressions, and combination counts beyond
    /// the configured limits.
    pub(crate) fn prepare(&self, request: &SedaRequest) -> Result<QueryPlan, SedaError> {
        faults::fire("plan")?;
        let statement = &request.statement;
        let mut plan = QueryPlan {
            engine: self.id(),
            statement: statement.clone(),
            query: SedaQuery::default(),
            term_inputs: Vec::new(),
            term_paths: Vec::new(),
            roots: Vec::new(),
            connections: Vec::new(),
            pattern: TwigPattern::default(),
            cube_options: request.cube_options.clone(),
            complete_result_limit: self.config().complete_result_limit,
        };

        // A clause the statement does not read would change nothing: a
        // request built as a struct is refused like its text would be.
        for (clause, present, read) in [
            ("WITH", !request.path_selections.is_empty(), statement.reads_selections()),
            ("VIA", !request.connections.is_empty(), statement.reads_connections()),
        ] {
            if present && !read {
                return Err(SedaError::Parse(statement.unread_clause(clause)));
            }
        }

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
            plan.pattern = pattern;
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
            Statement::TopK { .. } | Statement::ConnectionSummary { .. } => {
                plan.term_inputs = self.term_inputs(query, &selections);
            }
            Statement::CompleteResults | Statement::Cube { .. } => {
                plan.term_paths = self.term_paths(query, &selections);
                let combinations = plan.combinations();
                if combinations > plan.complete_result_limit {
                    return Err(SedaError::Limit {
                        resource: "context combinations",
                        spent: combinations,
                        budget: plan.complete_result_limit,
                    });
                }
                let paths = self.collection().paths();
                let root = |&path: &PathId| paths.resolve(path).steps()[0];
                plan.roots = plan.term_paths.iter().map(|t| t.iter().map(root).collect()).collect();
            }
            // A TWIG was lowered above.
            Statement::ContextSummary | Statement::Twig { .. } => {}
        }
        plan.query = query.clone();
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use seda_datagen::{factbook, mondial, FactbookConfig, MondialConfig};
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
        let guard = SearchLimits::CANDIDATE_GUARD;
        for q in ["(name, *)", "(name, *) AND (percentage, *)"] {
            let plan = e.prepare(&SedaRequest::parse(&format!("TOPK 5 FOR {q}")).unwrap()).unwrap();
            let transcript = plan.explain();
            let last = transcript.lines().last().unwrap();
            let join = format!(". threshold-algorithm rank join: k=5, candidate limit {guard}");
            assert!(last.ends_with(&join), "{q}: {transcript}");
        }
    }

    /// A `RESULTS` transcript lists the evaluation arms that run, each with
    /// the number of combinations the executor's same-root rule (first path
    /// step equal across the terms) sends to it, and none when there is no
    /// combination.
    #[test]
    fn results_list_only_the_arms_that_run() {
        let build = |collection| {
            SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
                .unwrap()
        };
        let mondial = build(mondial::generate(&MondialConfig::small()).unwrap());
        let request = SedaRequest::parse(r#"RESULTS FOR (name, "Canada") AND (population, *)"#);
        let plan = mondial.prepare(&request.unwrap()).unwrap();
        let paths = mondial.collection().paths();
        let root = |path: &PathId| paths.resolve(*path).steps().first();
        let (mut same_root, mut cross_root) = (0, 0);
        for name in &plan.term_paths[0] {
            for population in &plan.term_paths[1] {
                match root(name) == root(population) {
                    true => same_root += 1,
                    false => cross_root += 1,
                }
            }
        }
        assert_eq!(same_root + cross_root, 30);
        assert!(same_root > 0 && cross_root > 0, "the fixture mixes both arms");
        let transcript = plan.explain();
        let same = format!("\n  4. evaluate {same_root} same-root combination(s) as merged twig");
        let cross = format!("\n  5. join {cross_root} cross-root combination(s) via graph");
        assert!(transcript.contains(&same) && transcript.contains(&cross), "{transcript}");

        let factbook = build(factbook::generate(&FactbookConfig::small()).unwrap());
        let explain =
            |text: &str| factbook.prepare(&SedaRequest::parse(text).unwrap()).unwrap().explain();
        let item = "/country/economy/import_partners/item";
        let one_root = explain(&format!(
            r#"RESULTS FOR (*, "United States") AND (trade_country, *) AND (percentage, *)
               WITH 0 IN /country/name WITH 1 IN {item}/trade_country WITH 2 IN {item}/percentage"#
        ));
        assert!(
            one_root.ends_with(
                "  4. enumerate 1 context combination(s)\n  \
                 5. evaluate 1 same-root combination(s) as merged twig patterns\n"
            ),
            "{one_root}"
        );
        let none = explain("RESULTS FOR (/no/such, *) AND (percentage, *)");
        assert!(none.ends_with("  3. enumerate 0 context combination(s)\n"), "{none}");
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
