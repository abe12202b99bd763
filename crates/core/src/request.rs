//! Typed requests of the unified query facade.
//!
//! A [`SedaRequest`] bundles everything one trip through the Fig. 4 pipeline
//! needs: the [`SedaQuery`] terms, the context and connection refinements,
//! the star-schema options and a [`Statement`] saying which unit of the
//! engine answers it.  Requests are built fluently through
//! [`RequestBuilder`], or parsed from the textual front-end:
//!
//! ```text
//! TOPK 10 FOR (*, "United States") AND (trade_country, *)
//! CONTEXTS FOR (trade_country, *)
//! CONNECTIONS 10 FOR (name, *) AND (population, *)
//! RESULTS FOR (percentage, *) WITH 0 IN /country/economy/import_partners/item/percentage
//! RESULTS FOR (trade_country, *) AND (percentage, *) VIA /a/item/trade_country ~ /a/item ~ /a/item/percentage
//! TWIG /country/economy//trade_country
//! CUBE import-trade-percentage BY import-country AGG sum ADD year REMOVE country FOR (*, "United States") AND …
//! ```
//!
//! `WITH <term> IN <path>|<path>…` selects a term's contexts; `VIA <path> ~
//! <path> ~ …` keeps only the rows whose pairs connect through that
//! connection signature (the paths of the connection summary, ends
//! included); a `CUBE` head's `ADD` and `REMOVE` lists are the star-schema
//! [`BuildOptions`].
//!
//! An `EXPLAIN` prefix plans the request and returns the plan transcript
//! instead of executing it; `EXPLAIN ANALYZE` additionally *executes* the
//! request and returns the transcript annotated with each stage's measured
//! wall time, counter deltas and budget spend (see
//! [`crate::trace::render_analyzed`]).  Every request has exactly one
//! textual form: [`SedaRequest::render`] emits it, and `parse ∘ render` is
//! the identity — the round-trip the facade's serialisation tests pin.

use serde::{Deserialize, Serialize};

use seda_olap::{AggFn, BuildOptions};

use crate::error::SedaError;
use crate::query::{QueryError, SedaQuery};

/// Which unit of the Fig. 4 engine a request drives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

fn parse_agg(name: &str) -> Result<AggFn, SedaError> {
    match name.to_ascii_lowercase().as_str() {
        "sum" => Ok(AggFn::Sum),
        "avg" => Ok(AggFn::Avg),
        "count" => Ok(AggFn::Count),
        "min" => Ok(AggFn::Min),
        "max" => Ok(AggFn::Max),
        other => Err(malformed(format!(
            "unknown aggregation function {other:?} (expected sum|avg|count|min|max)"
        ))),
    }
}

/// One request → one [`crate::SedaResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SedaRequest {
    /// What to compute.
    pub statement: Statement,
    /// The query terms; required by every statement except [`Statement::Twig`].
    pub query: Option<SedaQuery>,
    /// Per-term context selections by path string (`WITH`), resolved and
    /// validated by the planner.
    pub path_selections: Vec<(usize, Vec<String>)>,
    /// Connection refinements of the complete-result set (`VIA`): each one a
    /// connection signature by path string, ends included, resolved by the
    /// planner like the `WITH` paths.
    pub connections: Vec<Vec<String>>,
    /// Options of the star-schema derivation (`ADD` / `REMOVE` of a cube
    /// statement).
    pub cube_options: BuildOptions,
    /// Plan the request and return the `explain()` transcript instead of
    /// executing it.
    pub explain: bool,
    /// With [`SedaRequest::explain`]: execute the request too, and annotate
    /// the transcript with measured per-stage wall times, counter deltas and
    /// budget spend (`EXPLAIN ANALYZE`).
    pub analyze: bool,
}

impl SedaRequest {
    /// Starts a fluent request builder.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// Parses the textual front-end (see the module docs for the grammar).
    pub fn parse(text: &str) -> Result<Self, SedaError> {
        let mut rest = text.trim();
        let mut builder = RequestBuilder::default();
        if let Some(tail) = strip_leading_keyword(rest, "EXPLAIN") {
            builder = builder.explain();
            rest = tail;
            if let Some(tail) = strip_leading_keyword(rest, "ANALYZE") {
                builder = builder.analyze();
                rest = tail;
            }
        }
        if rest.is_empty() {
            return Err(malformed("empty request".to_string()));
        }
        if rest.starts_with('(') {
            // Bare query terms default to a top-k search.
            return parse_query_part(builder.statement(Statement::TopK { k: 10 }), rest);
        }
        let (verb, tail) = next_token(rest);
        let statement_tail = tail.trim();
        let verb = verb.to_ascii_uppercase();
        let (statement, query_text) = match verb.as_str() {
            "TOPK" | "CONNECTIONS" => {
                let (k, after) = parse_leading_count(statement_tail, 10)?;
                let statement = if verb == "TOPK" {
                    Statement::TopK { k }
                } else {
                    Statement::ConnectionSummary { k }
                };
                (statement, expect_for(after, &verb)?)
            }
            "CONTEXTS" => (Statement::ContextSummary, expect_for(statement_tail, "CONTEXTS")?),
            "RESULTS" => (Statement::CompleteResults, expect_for(statement_tail, "RESULTS")?),
            "TWIG" => {
                if statement_tail.is_empty() {
                    return Err(malformed("TWIG requires a path expression".to_string()));
                }
                return Ok(builder.twig(statement_tail).build());
            }
            "CUBE" => {
                let split = split_first_keyword(statement_tail, &["FOR"]);
                let (head, _, query_text) = split.ok_or_else(|| {
                    malformed("CUBE requires a FOR clause with query terms".to_string())
                })?;
                let (statement, options) = parse_cube_head(head)?;
                builder = builder.cube_options(options);
                (statement, query_text)
            }
            other => {
                return Err(malformed(format!(
                    "unknown statement verb {other:?} \
                     (expected TOPK|CONTEXTS|CONNECTIONS|RESULTS|TWIG|CUBE or bare query terms)"
                )))
            }
        };
        parse_query_part(builder.statement(statement), query_text)
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
    /// `CUBE` keeps star-schema options.
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

fn malformed(message: String) -> SedaError {
    SedaError::Parse(QueryError::Malformed(message))
}

/// Splits `text` at the first top-level occurrence of any of `keywords` (a
/// whitespace-delimited token outside quotes and parentheses), returning the
/// trimmed text before it, the keyword as written and the trimmed text after
/// it.
fn split_first_keyword<'a>(
    text: &'a str,
    keywords: &[&str],
) -> Option<(&'a str, &'a str, &'a str)> {
    let mut depth = 0usize;
    let mut in_quotes = false;
    let mut token_start: Option<usize> = None;
    let found = |start: usize, end: usize| {
        let token = &text[start..end];
        keywords
            .iter()
            .any(|k| token.eq_ignore_ascii_case(k))
            .then(|| (text[..start].trim(), token, text[end..].trim()))
    };
    for (i, c) in text.char_indices() {
        let is_boundary = c.is_whitespace() || c == '(' || c == ')' || c == '"';
        if is_boundary {
            // Finalise the pending token with the state it was scanned in
            // (quote/paren state cannot change inside a token).
            if let Some(start) = token_start.take() {
                if depth == 0 && !in_quotes {
                    if let Some(split) = found(start, i) {
                        return Some(split);
                    }
                }
            }
            match c {
                '"' => in_quotes = !in_quotes,
                '(' if !in_quotes => depth += 1,
                ')' if !in_quotes => depth = depth.saturating_sub(1),
                _ => {}
            }
        } else if token_start.is_none() {
            token_start = Some(i);
        }
    }
    match token_start {
        Some(start) if depth == 0 && !in_quotes => found(start, text.len()),
        _ => None,
    }
}

/// Strips `keyword` from the start of `text` when it is the first
/// whitespace-delimited token (case-insensitive).
fn strip_leading_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let (token, rest) = next_token(text);
    if token.eq_ignore_ascii_case(keyword) {
        Some(rest.trim_start())
    } else {
        None
    }
}

/// The first whitespace-delimited token of `text` and everything after it.
fn next_token(text: &str) -> (&str, &str) {
    let trimmed = text.trim_start();
    match trimmed.find(char::is_whitespace) {
        Some(end) => (&trimmed[..end], &trimmed[end..]),
        None => (trimmed, ""),
    }
}

/// Parses an optional leading integer (e.g. the `10` of `TOPK 10 FOR …`).
fn parse_leading_count(text: &str, default: usize) -> Result<(usize, &str), SedaError> {
    let (token, rest) = next_token(text);
    if token.eq_ignore_ascii_case("FOR") || token.is_empty() {
        return Ok((default, text));
    }
    match token.parse::<usize>() {
        Ok(k) => Ok((k, rest)),
        Err(_) => Err(malformed(format!("expected a count or FOR, found {token:?}"))),
    }
}

/// Consumes the mandatory `FOR` keyword and returns the query part after it.
fn expect_for<'a>(text: &'a str, statement: &str) -> Result<&'a str, SedaError> {
    strip_leading_keyword(text, "FOR")
        .ok_or_else(|| malformed(format!("{statement} requires a FOR clause with query terms")))
}

/// The clause keywords that may follow the query terms.
const QUERY_CLAUSES: [&str; 2] = ["WITH", "VIA"];

/// Parses `<terms> [WITH <term> IN <path>[|<path>…]]… [VIA <path> ~
/// <path>[ ~ <path>…]]…` into the builder and finalises the request.
fn parse_query_part(mut builder: RequestBuilder, text: &str) -> Result<SedaRequest, SedaError> {
    let (query_text, mut next) = match split_first_keyword(text, &QUERY_CLAUSES) {
        Some((query, keyword, rest)) => (query, Some((keyword, rest))),
        None => (text.trim(), None),
    };
    builder = builder.query(SedaQuery::parse(query_text)?);
    while let Some((keyword, clause_text)) = next {
        let clause = match split_first_keyword(clause_text, &QUERY_CLAUSES) {
            Some((clause, keyword, rest)) => {
                next = Some((keyword, rest));
                clause
            }
            None => {
                next = None;
                clause_text
            }
        };
        if keyword.eq_ignore_ascii_case("VIA") {
            builder = builder.via(parse_paths(clause, '~', "VIA")?);
            continue;
        }
        let (term_token, tail) = next_token(clause);
        let term: usize = term_token.parse().map_err(|_| {
            malformed(format!("WITH clause expects a term index, found {term_token:?}"))
        })?;
        let paths_text = strip_leading_keyword(tail, "IN").ok_or_else(|| {
            malformed(format!("WITH {term} must be followed by IN <path>[|<path>…]"))
        })?;
        builder = builder.select_paths(term, parse_paths(paths_text, '|', "WITH … IN")?);
    }
    Ok(builder.build())
}

/// Parses a non-empty `separator`-delimited list of path strings, each one
/// whitespace-free token.
fn parse_paths(text: &str, separator: char, clause: &str) -> Result<Vec<String>, SedaError> {
    let paths: Vec<String> = text.split(separator).map(|p| p.trim().to_string()).collect();
    if paths.iter().any(|p| p.is_empty() || p.contains(char::is_whitespace)) {
        return Err(malformed(format!(
            "{clause} expects paths separated by {separator:?}: {text:?}"
        )));
    }
    Ok(paths)
}

/// Parses the one token of a cube clause, rejecting trailing garbage rather
/// than silently dropping it.
fn single_token<'a>(text: &'a str, clause: &str) -> Result<&'a str, SedaError> {
    let (token, rest) = next_token(text);
    if token.is_empty() {
        return Err(malformed(format!("{clause} requires a name")));
    }
    if !rest.trim().is_empty() {
        return Err(malformed(format!("unexpected trailing cube clause {:?}", rest.trim())));
    }
    Ok(token)
}

/// Parses the comma-separated names of an `ADD` / `REMOVE` clause.
fn parse_names(text: Option<&str>, clause: &str) -> Result<Vec<String>, SedaError> {
    let Some(text) = text else { return Ok(Vec::new()) };
    text.split(',').map(|name| single_token(name, clause).map(str::to_string)).collect()
}

/// Parses the head of a cube statement: `<fact> BY <dim>[, <dim>…] [AGG
/// <fn>] [MEASURE <column>] [ADD <name>[, <name>…]] [REMOVE <name>[,
/// <name>…]]`, the clauses in this order.
fn parse_cube_head(head: &str) -> Result<(Statement, BuildOptions), SedaError> {
    let mut rest = head;
    let mut clauses = [None; 4];
    for (slot, keyword) in clauses.iter_mut().zip(["REMOVE", "ADD", "MEASURE", "AGG"]) {
        if let Some((before, _, after)) = split_first_keyword(rest, &[keyword]) {
            (rest, *slot) = (before, Some(after));
        }
    }
    let [remove, add, measure, agg] = clauses;
    let (fact, tail) = next_token(rest);
    if fact.is_empty() {
        return Err(malformed("CUBE requires a fact-table name".to_string()));
    }
    let dims_text = strip_leading_keyword(tail, "BY")
        .ok_or_else(|| malformed("CUBE requires BY <dimension>[, <dimension>…]".to_string()))?;
    let group_by: Vec<String> =
        dims_text.split(',').map(|d| d.trim().to_string()).filter(|d| !d.is_empty()).collect();
    if group_by.is_empty() {
        return Err(malformed("CUBE requires at least one BY dimension".to_string()));
    }
    let agg = match agg {
        Some(text) => parse_agg(single_token(text, "AGG")?)?,
        None => AggFn::Sum,
    };
    let measure = measure.map(|text| single_token(text, "MEASURE")).transpose()?;
    let statement = Statement::Cube {
        fact: fact.to_string(),
        group_by,
        agg,
        measure: measure.map(str::to_string),
    };
    let options =
        BuildOptions { add: parse_names(add, "ADD")?, remove: parse_names(remove, "REMOVE")? };
    Ok((statement, options))
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
