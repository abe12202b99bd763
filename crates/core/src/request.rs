//! Typed requests of the unified query facade.
//!
//! A [`SedaRequest`] bundles everything one trip through the Fig. 4 pipeline
//! needs: the [`SedaQuery`] terms, the context (`WITH`) and connection
//! (`VIA`) refinements, the star-schema options and a [`Statement`] saying
//! which unit of the engine answers it.  Requests are built fluently through
//! [`RequestBuilder`], or parsed from text by the one grammar of
//! [`crate::grammar`].
//!
//! An `EXPLAIN` prefix plans the request and returns the plan transcript
//! instead of executing it; `EXPLAIN ANALYZE` additionally *executes* the
//! request and returns the transcript annotated with each stage's measured
//! wall time and counter deltas (see
//! [`crate::trace::render_analyzed`]).  Every request has exactly one
//! textual form: [`SedaRequest::render`] emits it, and `parse ∘ render` is
//! the identity — the round-trip `crates/core/tests/facade_roundtrip.rs`
//! pins.

use seda_olap::{AggFn, BuildOptions};

use crate::error::SedaError;
use crate::query::SedaQuery;

/// Which unit of the Fig. 4 engine a request drives.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Threshold-Algorithm top-k search.
    TopK {
        /// Number of result tuples to return.
        k: usize,
    },
    /// Context summary (Sec. 5): one bucket of distinct paths per term.
    ContextSummary,
    /// Connection summary (Sec. 6) over the top-k result of the query.
    ConnectionSummary {
        /// `k` of the underlying top-k search the connections derive from.
        k: usize,
    },
    /// The complete (non-top-k) result set R(q) (Sec. 7).
    CompleteResults,
    /// Structural twig evaluation over a `/a/b//c` path expression.
    Twig {
        /// The twig path; `/` is the child axis, `//` the descendant axis.
        path: String,
    },
    /// The full pipeline: complete results, star-schema derivation, cube
    /// aggregation.
    Cube {
        /// Fact table of the derived star schema to aggregate.
        fact: String,
        /// Group-by dimension columns.
        group_by: Vec<String>,
        /// Aggregation function.
        agg: AggFn,
        /// Measure column; defaults to the fact name when absent.
        measure: Option<String>,
    },
}

impl Statement {
    /// The short name of each statement kind, indexed by [`Statement::kind`].
    pub(crate) const NAMES: [&'static str; 6] =
        ["TOPK", "CONTEXTS", "CONNECTIONS", "RESULTS", "TWIG", "CUBE"];

    /// Short name of the statement, used by error messages, plans and
    /// metric labels.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.kind()]
    }

    /// Whether the statement reads `WITH` context selections: every one
    /// but `CONTEXTS` (whose buckets list every context of a term) and
    /// `TWIG` (which has no terms).
    pub(crate) fn reads_selections(&self) -> bool {
        !matches!(self, Statement::ContextSummary | Statement::Twig { .. })
    }

    /// Whether the statement reads `VIA` connection refinements: only the
    /// complete results do, and the cube derived from them.
    pub(crate) fn reads_connections(&self) -> bool {
        matches!(self, Statement::CompleteResults | Statement::Cube { .. })
    }

    /// The message refusing a `clause` (`WITH`, `VIA`) this statement does
    /// not read: a clause that would change nothing is an error, not a
    /// silent no-op.
    pub(crate) fn unread_clause(&self, clause: &str) -> String {
        format!("{} does not read a {clause} clause", self.name())
    }

    /// The statement's kind: its index into [`Statement::NAMES`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Statement::TopK { .. } => 0,
            Statement::ContextSummary => 1,
            Statement::ConnectionSummary { .. } => 2,
            Statement::CompleteResults => 3,
            Statement::Twig { .. } => 4,
            Statement::Cube { .. } => 5,
        }
    }
}

pub(crate) fn agg_name(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Sum => "sum",
        AggFn::Avg => "avg",
        AggFn::Count => "count",
        AggFn::Min => "min",
        AggFn::Max => "max",
    }
}

/// One request → one [`crate::SedaResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct SedaRequest {
    /// What to compute.
    pub statement: Statement,
    /// The query terms; required by every statement except [`Statement::Twig`].
    pub query: Option<SedaQuery>,
    /// Per-term context selections by path string (`WITH`), resolved and
    /// validated by the planner.  Every statement but `CONTEXTS` and `TWIG`
    /// reads them; the planner refuses them on those two with
    /// [`SedaError::Parse`].
    pub path_selections: Vec<(usize, Vec<String>)>,
    /// Connection refinements of the complete-result set (`VIA`): each one a
    /// connection signature by path string, ends included, resolved by the
    /// planner like the `WITH` paths.  Only `RESULTS` and `CUBE` read them;
    /// the planner refuses them on any other statement with
    /// [`SedaError::Parse`].
    pub connections: Vec<Vec<String>>,
    /// Options of the star-schema derivation (`ADD` / `REMOVE` of a cube
    /// statement).
    pub cube_options: BuildOptions,
    /// Plan the request and return the `explain()` transcript instead of
    /// executing it.
    pub explain: bool,
    /// With [`SedaRequest::explain`]: execute the request too, and annotate
    /// the transcript with measured per-stage wall times, counter deltas and
    /// rows (`EXPLAIN ANALYZE`).
    pub analyze: bool,
}

impl SedaRequest {
    /// Starts a fluent request builder.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// Parses request text (the request grammar's `request` rule).
    pub fn parse(text: &str) -> Result<Self, SedaError> {
        crate::grammar::parse_request(text)
    }

    /// Renders the request in its one textual form, every field included:
    /// `parse ∘ render` is the identity on every request whose `WITH` and
    /// `VIA` clauses name paths and whose strings are grammar tokens (no
    /// whitespace, `|`, `~`, `,` or keyword).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.explain {
            out.push_str(if self.analyze { "EXPLAIN ANALYZE " } else { "EXPLAIN " });
        }
        match &self.statement {
            Statement::TopK { k } => out.push_str(&format!("TOPK {k}")),
            Statement::ContextSummary => out.push_str("CONTEXTS"),
            Statement::ConnectionSummary { k } => out.push_str(&format!("CONNECTIONS {k}")),
            Statement::CompleteResults => out.push_str("RESULTS"),
            Statement::Twig { path } => {
                out.push_str("TWIG ");
                out.push_str(path);
                return out;
            }
            Statement::Cube { fact, group_by, agg, measure } => {
                out.push_str(&format!("CUBE {fact} BY {}", group_by.join(", ")));
                out.push_str(&format!(" AGG {}", agg_name(*agg)));
                if let Some(measure) = measure {
                    out.push_str(&format!(" MEASURE {measure}"));
                }
                for (keyword, names) in
                    [("ADD", &self.cube_options.add), ("REMOVE", &self.cube_options.remove)]
                {
                    if !names.is_empty() {
                        out.push_str(&format!(" {keyword} {}", names.join(", ")));
                    }
                }
            }
        }
        if let Some(query) = &self.query {
            out.push_str(" FOR ");
            out.push_str(&query.to_string());
        }
        for (term, paths) in &self.path_selections {
            out.push_str(&format!(" WITH {term} IN {}", paths.join("|")));
        }
        for signature in &self.connections {
            out.push_str(&format!(" VIA {}", signature.join(" ~ ")));
        }
        out
    }
}

impl std::fmt::Display for SedaRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Fluent builder for [`SedaRequest`]; validation happens at plan time, so
/// `build` never fails.
#[derive(Debug, Clone, Default)]
pub struct RequestBuilder {
    statement: Option<Statement>,
    query: Option<SedaQuery>,
    path_selections: Vec<(usize, Vec<String>)>,
    connections: Vec<Vec<String>>,
    cube_options: BuildOptions,
    explain: bool,
    analyze: bool,
}

impl RequestBuilder {
    /// Sets the statement; defaults to `TOPK 10` when never called.
    pub fn statement(mut self, statement: Statement) -> Self {
        self.statement = Some(statement);
        self
    }

    /// Shorthand for [`Statement::TopK`].
    pub fn top_k(self, k: usize) -> Self {
        self.statement(Statement::TopK { k })
    }

    /// Shorthand for [`Statement::ContextSummary`].
    pub fn contexts(self) -> Self {
        self.statement(Statement::ContextSummary)
    }

    /// Shorthand for [`Statement::ConnectionSummary`].
    pub fn connection_summary(self, k: usize) -> Self {
        self.statement(Statement::ConnectionSummary { k })
    }

    /// Shorthand for [`Statement::CompleteResults`].
    pub fn complete_results(self) -> Self {
        self.statement(Statement::CompleteResults)
    }

    /// Shorthand for [`Statement::Twig`].
    pub fn twig(self, path: impl Into<String>) -> Self {
        self.statement(Statement::Twig { path: path.into() })
    }

    /// Shorthand for [`Statement::Cube`] with `sum` aggregation and the
    /// default measure (the fact name).
    pub fn cube(self, fact: impl Into<String>, group_by: &[&str]) -> Self {
        self.statement(Statement::Cube {
            fact: fact.into(),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            agg: AggFn::Sum,
            measure: None,
        })
    }

    /// Sets the query terms.
    pub fn query(mut self, query: SedaQuery) -> Self {
        self.query = Some(query);
        self
    }

    /// Parses and sets the query terms.
    pub fn query_text(self, text: &str) -> Result<Self, SedaError> {
        let query = SedaQuery::parse(text)?;
        Ok(self.query(query))
    }

    /// Selects contexts for a term by path string (`WITH`), replacing
    /// earlier selections for that term; the planner resolves the strings
    /// and fails with [`SedaError::UnknownPath`] on a miss.
    pub fn select_paths<I, S>(mut self, term: usize, paths: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.path_selections.retain(|(t, _)| *t != term);
        self.path_selections.push((term, paths.into_iter().map(Into::into).collect()));
        self
    }

    /// Adds a connection refinement (`VIA`): the complete-result set keeps
    /// only rows whose node pairs between the signature's two end contexts
    /// connect through exactly this signature of path strings.
    pub fn via<I, S>(mut self, signature: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.connections.push(signature.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the star-schema build options of a cube statement.
    pub fn cube_options(mut self, options: BuildOptions) -> Self {
        self.cube_options = options;
        self
    }

    /// Marks the request as `EXPLAIN`: plan only, return the transcript.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Marks the request as `EXPLAIN ANALYZE`: execute it and return the
    /// transcript annotated with measured per-stage breakdowns (implies
    /// [`RequestBuilder::explain`]).
    pub fn analyze(mut self) -> Self {
        self.explain = true;
        self.analyze = true;
        self
    }

    /// Finalises the request.  What its statement cannot use is dropped, as
    /// the planner would ignore it: a `TWIG` keeps only its path, and only a
    /// `CUBE` keeps star-schema options.  `WITH` / `VIA` clauses are kept on
    /// every other statement: the planner refuses one its statement does not
    /// read.
    pub fn build(self) -> SedaRequest {
        let statement = self.statement.unwrap_or(Statement::TopK { k: 10 });
        let (twig, cube) = match &statement {
            Statement::Twig { .. } => (true, false),
            Statement::Cube { .. } => (false, true),
            _ => (false, false),
        };
        SedaRequest {
            query: self.query.filter(|_| !twig),
            path_selections: if twig { Vec::new() } else { self.path_selections },
            connections: if twig { Vec::new() } else { self.connections },
            cube_options: if cube { self.cube_options } else { BuildOptions::default() },
            statement,
            explain: self.explain,
            analyze: self.analyze,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_terms_default_to_topk() {
        let req = SedaRequest::parse(r#"(*, "United States") AND (percentage, *)"#).unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 10 });
        assert_eq!(req.query.as_ref().unwrap().len(), 2);
        assert!(!req.explain);
    }

    #[test]
    fn verbs_parse_with_counts_and_clauses() {
        let req = SedaRequest::parse("TOPK 25 FOR (name, *)").unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 25 });
        let req = SedaRequest::parse("CONTEXTS FOR (name, *)").unwrap();
        assert_eq!(req.statement, Statement::ContextSummary);
        let req = SedaRequest::parse("CONNECTIONS FOR (name, *) AND (year, *)").unwrap();
        assert_eq!(req.statement, Statement::ConnectionSummary { k: 10 });
        let req = SedaRequest::parse("TWIG /country//name").unwrap();
        assert_eq!(req.statement, Statement::Twig { path: "/country//name".into() });
        assert!(req.query.is_none());
        // A `(` ends a keyword everywhere.
        for (text, spaced) in [
            ("TOPK 3 FOR(a, x)", "TOPK 3 FOR (a, x)"),
            ("CONTEXTS FOR(a, x)", "CONTEXTS FOR (a, x)"),
            ("CUBE f BY d FOR(a, *)", "CUBE f BY d FOR (a, *)"),
            ("RESULTS FOR (a, x)WITH 0 IN /p", "RESULTS FOR (a, x) WITH 0 IN /p"),
        ] {
            assert_eq!(SedaRequest::parse(text), SedaRequest::parse(spaced), "{text}");
            assert!(SedaRequest::parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn with_clauses_carry_path_selections() {
        let req = SedaRequest::parse(
            "RESULTS FOR (name, *) AND (percentage, *) \
             WITH 0 IN /country/name WITH 1 IN /a/b|/c/d",
        )
        .unwrap();
        assert_eq!(req.statement, Statement::CompleteResults);
        assert_eq!(
            req.path_selections,
            vec![
                (0, vec!["/country/name".to_string()]),
                (1, vec!["/a/b".to_string(), "/c/d".to_string()]),
            ]
        );
    }

    #[test]
    fn cube_head_parses_dims_agg_and_measure() {
        let req = SedaRequest::parse(
            "CUBE import-trade-percentage BY import-country, year AGG avg \
             MEASURE import-trade-percentage FOR (name, *)",
        )
        .unwrap();
        match req.statement {
            Statement::Cube { fact, group_by, agg, measure } => {
                assert_eq!(fact, "import-trade-percentage");
                assert_eq!(group_by, vec!["import-country", "year"]);
                assert_eq!(agg, AggFn::Avg);
                assert_eq!(measure.as_deref(), Some("import-trade-percentage"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_prefix_marks_the_request() {
        let req = SedaRequest::parse("EXPLAIN TOPK 5 FOR (name, *)").unwrap();
        assert!(req.explain);
        assert!(!req.analyze);
        assert_eq!(req.statement, Statement::TopK { k: 5 });
    }

    #[test]
    fn explain_analyze_prefix_marks_both_flags() {
        let req = SedaRequest::parse("EXPLAIN ANALYZE TOPK 5 FOR (name, *)").unwrap();
        assert!(req.explain && req.analyze);
        assert_eq!(req.statement, Statement::TopK { k: 5 });
        assert_eq!(req.render(), "EXPLAIN ANALYZE TOPK 5 FOR (name, *)");
        // ANALYZE is only a keyword right after EXPLAIN.
        assert!(SedaRequest::parse("ANALYZE TOPK 5 FOR (name, *)").is_err());
    }

    #[test]
    fn keywords_inside_quotes_and_parens_are_not_clause_boundaries() {
        // "FOR" and "WITH" inside a quoted phrase or inside term parens must
        // not split the request.
        let req =
            SedaRequest::parse(r#"TOPK 3 FOR (name, "war FOR peace") AND (notes, with)"#).unwrap();
        assert_eq!(req.statement, Statement::TopK { k: 3 });
        assert_eq!(req.query.as_ref().unwrap().len(), 2);
        assert!(req.path_selections.is_empty());
    }

    #[test]
    fn malformed_requests_report_parse_errors() {
        assert!(matches!(SedaRequest::parse(""), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("FROB (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("TOPK FOR"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("TOPK x FOR (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(SedaRequest::parse("CUBE f FOR (a, b)"), Err(SedaError::Parse(_))));
        assert!(matches!(
            SedaRequest::parse("RESULTS FOR (a, b) WITH zero IN /x"),
            Err(SedaError::Parse(_))
        ));
        assert!(matches!(SedaRequest::parse("TWIG"), Err(SedaError::Parse(_))));
        // A term is refined by one WITH clause; a second one is no silent
        // replacement.
        let twice = "RESULTS FOR (a, *) AND (b, *) WITH 0 IN /x/a WITH 1 IN /x/b WITH 0 IN /y/a";
        let err = SedaRequest::parse(twice).unwrap_err();
        assert!(matches!(&err, SedaError::Parse(m) if m.contains("term 0")), "{err}");
        // A clause the statement does not read is refused, naming it.
        for (text, clause) in [
            ("TOPK 5 FOR (a, *) VIA /r/a ~ /r/b", "TOPK does not read a VIA clause"),
            ("CONNECTIONS FOR (a, *) VIA /r/a ~ /r/b", "CONNECTIONS does not read a VIA clause"),
            ("CONTEXTS FOR (a, *) WITH 0 IN /r/a", "CONTEXTS does not read a WITH clause"),
            ("CONTEXTS FOR (a, *) VIA /r/a ~ /r/b", "CONTEXTS does not read a VIA clause"),
        ] {
            let err = SedaRequest::parse(text).unwrap_err();
            assert!(matches!(&err, SedaError::Parse(m) if m.contains(clause)), "{text}: {err}");
        }
        // A TWIG takes exactly one path token.
        for text in ["TWIG /a/b WITH 0 IN /x", "TWIG /a /b", "TWIG /a/b FOR (a, x)"] {
            assert!(matches!(SedaRequest::parse(text), Err(SedaError::Parse(_))), "{text}");
        }
        // Trailing garbage after MEASURE is rejected, not swallowed.
        assert!(matches!(
            SedaRequest::parse("CUBE f BY a AGG sum MEASURE m junk FOR (x, *)"),
            Err(SedaError::Parse(_))
        ));
        assert!(matches!(
            SedaRequest::parse("CUBE f BY a MEASURE m junk FOR (x, *)"),
            Err(SedaError::Parse(_))
        ));
    }

    #[test]
    fn render_parse_round_trip() {
        for text in [
            r#"TOPK 10 FOR (*, "united states") AND (trade_country, *)"#,
            "CONTEXTS FOR (name, *)",
            "CONNECTIONS 5 FOR (name, *) AND (population, *)",
            "RESULTS FOR (percentage, *) WITH 0 IN /country/name|/country/year",
            "TWIG /country/economy//trade_country",
            "CUBE pct BY country, year AGG avg MEASURE pct FOR (name, *)",
            "EXPLAIN TOPK 3 FOR (name, *)",
            "EXPLAIN ANALYZE CONTEXTS FOR (name, *)",
            "EXPLAIN ANALYZE TWIG /country/name",
        ] {
            let parsed = SedaRequest::parse(text).unwrap();
            let rendered = parsed.render();
            assert_eq!(
                SedaRequest::parse(&rendered).unwrap(),
                parsed,
                "render of {text:?} must reparse identically (got {rendered:?})"
            );
        }
    }

    #[test]
    fn builder_composes_fluently() {
        let query = SedaQuery::parse("(name, *)").unwrap();
        let req = SedaRequest::builder()
            .top_k(7)
            .query(query.clone())
            .select_paths(0, ["/country/name"])
            .explain()
            .build();
        assert_eq!(req.statement, Statement::TopK { k: 7 });
        assert_eq!(req.query, Some(query));
        assert_eq!(req.path_selections, vec![(0, vec!["/country/name".to_string()])]);
        assert!(req.explain);
        // Re-selecting a term replaces the earlier selection.
        let req = SedaRequest::builder().select_paths(0, ["/a"]).select_paths(0, ["/b"]).build();
        assert_eq!(req.path_selections, vec![(0, vec!["/b".to_string()])]);
    }
}
