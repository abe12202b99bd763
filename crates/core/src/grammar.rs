//! The request grammar: one lexer and one recursive-descent parser for all
//! request text.
//!
//! [`SedaRequest::parse`] reads a whole `request`, [`SedaQuery::parse`] only
//! its `query`:
//!
//! ```text
//! request   = [ "EXPLAIN" [ "ANALYZE" ] ] ( statement | query clauses ) ;
//! statement = ( "TOPK" | "CONNECTIONS" ) [ count ] "FOR" query clauses
//!           | ( "CONTEXTS" | "RESULTS" ) "FOR" query clauses
//!           | "TWIG" word
//!           | "CUBE" name "BY" names [ "AGG" word ] [ "MEASURE" name ]
//!             [ "ADD" names ] [ "REMOVE" names ] "FOR" query clauses ;
//! names     = name { "," name } ;
//! clauses   = { "WITH" count "IN" path { "|" path } | "VIA" path { "~" path } } ;
//! query     = term { and term } ;
//! term      = "(" [ word ] "," [ search ] ")" ;          (* context, search *)
//! search    = conj { "OR" conj } ;
//! conj      = unary { and unary } ;
//! unary     = { "NOT" } primary ;
//! primary   = "*" | phrase | word { word } | "(" search ")" ;
//! and       = "AND" | "∧" ;
//! (* Keywords are words compared ASCII-case-insensitively.  A search nests
//!    at most 256 levels: open parentheses, and operators on one path of its
//!    parse tree. *)
//! ```
//!
//! The lexer cuts the text once into tokens: a `phrase` is the text between
//! two double quotes; `(`, `)` and `,` stand alone; a `word` is any other run
//! of characters up to whitespace or one of those, so a `(` ends a keyword
//! everywhere.  Bare query terms are a `TOPK 10`.  A `count` is a word that
//! reads as an unsigned integer (a missing `TOPK` / `CONNECTIONS` count is
//! 10); a `name` is a word other than `BY`, `AGG`, `MEASURE`, `ADD`, `REMOVE`
//! and `FOR`.  A `WITH` or `VIA` path list is the words up to the next
//! `WITH` / `VIA`, split at its separator, which may stand alone or touch a
//! path; a path holds no whitespace.  A term index is named by one `WITH`
//! clause at most.  A clause its statement does not read is refused: `WITH`
//! on `CONTEXTS`, and `VIA` on anything but `RESULTS` and `CUBE`.  The
//! `TWIG` word is compiled by [`seda_twigjoin::TwigPattern::parse`] at plan
//! time, and a term's context word by [`ContextSpec::parse`]: `*` or
//! nothing, a path `/a/b`, a tag with `*` wildcards, or a disjunction
//! `a|/b/c` with no empty alternative.  The
//! words of a keyword bag are split into index terms by
//! [`seda_textindex::terms`]; a term that reads as an operator (`x-and`)
//! must be quoted, and `*` stands only alone.  `AND` binds tighter than
//! `OR`, and `NOT` tighter than both.  Text nested deeper than the limit is a
//! [`SedaError::Parse`], so neither the parser nor the recursive walks over
//! the tree (`Display`, matching, `Drop`) can exhaust a thread's stack.

use seda_olap::{AggFn, BuildOptions};
use seda_textindex::{terms, FullTextQuery};

use crate::error::SedaError;
use crate::query::{ContextSpec, QueryTerm, SedaQuery};
use crate::request::{agg_name, SedaRequest, Statement};

/// Deepest nesting of a search expression, in open parentheses and in
/// operators on one path of its parse tree.
const MAX_NESTING: usize = 256;

/// The words a cube-head `name` may not be: the keywords that can follow it.
const CUBE_KEYWORDS: [&str; 6] = ["BY", "AGG", "MEASURE", "ADD", "REMOVE", "FOR"];

/// Parses a whole request.
pub(crate) fn parse_request(text: &str) -> Result<SedaRequest, SedaError> {
    let mut parser = Parser::new(text)?;
    let request = parser.request()?;
    parser.end()?;
    Ok(request)
}

/// Parses query terms alone.
pub(crate) fn parse_query(text: &str) -> Result<SedaQuery, SedaError> {
    let mut parser = Parser::new(text)?;
    let query = parser.query()?;
    parser.end()?;
    Ok(query)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Word,
    Phrase,
    Open,
    Close,
    Comma,
}

/// A token: a slice of the request text (a phrase without its quotes) and
/// the byte offset it starts at.
#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    kind: Kind,
    text: &'a str,
    start: usize,
}

impl Token<'_> {
    fn is(&self, keyword: &str) -> bool {
        self.kind == Kind::Word && self.text.eq_ignore_ascii_case(keyword)
    }

    fn is_operator(&self) -> bool {
        ["AND", "∧", "OR", "NOT"].iter().any(|op| self.is(op))
    }
}

fn parse_error(at: usize, message: impl std::fmt::Display) -> SedaError {
    SedaError::Parse(format!("{message} (at byte {at})"))
}

fn lex(text: &str) -> Result<Vec<Token<'_>>, SedaError> {
    let mut tokens = Vec::new();
    let mut at = 0;
    while let Some(c) = text[at..].chars().next() {
        let (kind, body, next) = match c {
            c if c.is_whitespace() => {
                at += c.len_utf8();
                continue;
            }
            '(' => (Kind::Open, "(", at + 1),
            ')' => (Kind::Close, ")", at + 1),
            ',' => (Kind::Comma, ",", at + 1),
            '"' => {
                let close = text[at + 1..]
                    .find('"')
                    .ok_or_else(|| parse_error(at, "unterminated phrase quote"))?;
                (Kind::Phrase, &text[at + 1..at + 1 + close], at + close + 2)
            }
            _ => {
                let end = text[at..]
                    .find(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | ',' | '"'))
                    .map_or(text.len(), |n| at + n);
                (Kind::Word, &text[at..end], end)
            }
        };
        tokens.push(Token { kind, text: body, start: at });
        at = next;
    }
    Ok(tokens)
}

/// A search expression and its height in operators.
type Node = (FullTextQuery, usize);

struct Parser<'a> {
    source: &'a str,
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Result<Self, SedaError> {
        Ok(Parser { source, tokens: lex(source)?, pos: 0 })
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    /// Consumes the next token when `accept` holds for it.
    fn take(&mut self, accept: impl Fn(&Token<'a>) -> bool) -> Option<Token<'a>> {
        let token = self.peek().filter(accept)?;
        self.pos += 1;
        Some(token)
    }

    fn keyword(&mut self, keyword: &str) -> bool {
        self.take(|t| t.is(keyword)).is_some()
    }

    fn and(&mut self) -> bool {
        self.keyword("AND") || self.keyword("∧")
    }

    /// An error at the next token: the grammar `expected` something else.
    fn expected<T>(&self, expected: &str) -> Result<T, SedaError> {
        Err(match self.peek() {
            Some(t) => parse_error(t.start, format!("{expected}, found {:?}", t.text)),
            None => parse_error(self.source.len(), format!("{expected}, found the end")),
        })
    }

    /// Consumes the next token when `accept` holds for it, or fails.
    fn need(
        &mut self,
        accept: impl Fn(&Token<'a>) -> bool,
        expected: &str,
    ) -> Result<Token<'a>, SedaError> {
        match self.take(accept) {
            Some(token) => Ok(token),
            None => self.expected(expected),
        }
    }

    fn word(&mut self, expected: &str) -> Result<Token<'a>, SedaError> {
        self.need(|t| t.kind == Kind::Word, expected)
    }

    fn name(&mut self, expected: &str) -> Result<String, SedaError> {
        let name = |t: &Token| t.kind == Kind::Word && !CUBE_KEYWORDS.iter().any(|k| t.is(k));
        Ok(self.need(name, expected)?.text.to_string())
    }

    fn count(&mut self, expected: &str) -> Result<usize, SedaError> {
        let token = self.word(expected)?;
        token
            .text
            .parse()
            .map_err(|_| parse_error(token.start, format!("{expected}, found {:?}", token.text)))
    }

    fn end(&self) -> Result<(), SedaError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.expected("expected the end"),
        }
    }

    fn request(&mut self) -> Result<SedaRequest, SedaError> {
        let mut builder = SedaRequest::builder();
        if self.keyword("EXPLAIN") {
            builder = if self.keyword("ANALYZE") { builder.analyze() } else { builder.explain() };
        }
        let statement = if self.peek().is_some_and(|t| t.kind == Kind::Open) {
            Statement::TopK { k: 10 }
        } else {
            let verb = self.word("expected a statement verb or query terms")?;
            let count = |parser: &mut Self| match parser.peek() {
                Some(t) if t.kind == Kind::Word && !t.is("FOR") => {
                    parser.count("expected a count or FOR")
                }
                _ => Ok(10),
            };
            let statement = match verb.text.to_ascii_uppercase().as_str() {
                "TOPK" => Statement::TopK { k: count(self)? },
                "CONNECTIONS" => Statement::ConnectionSummary { k: count(self)? },
                "CONTEXTS" => Statement::ContextSummary,
                "RESULTS" => Statement::CompleteResults,
                "TWIG" => {
                    let path = self.word("TWIG requires a path expression")?;
                    return Ok(builder.twig(path.text).build());
                }
                "CUBE" => {
                    let (statement, options) = self.cube_head()?;
                    builder = builder.cube_options(options);
                    statement
                }
                _ => {
                    return Err(parse_error(
                        verb.start,
                        format!(
                            "unknown statement verb {:?} (expected \
                             TOPK|CONTEXTS|CONNECTIONS|RESULTS|TWIG|CUBE or bare query terms)",
                            verb.text
                        ),
                    ))
                }
            };
            let expected = format!("{} requires a FOR clause with query terms", statement.name());
            self.need(|t| t.is("FOR"), &expected)?;
            statement
        };
        builder = builder.statement(statement.clone()).query(self.query()?);
        // A clause the statement does not read would change nothing.
        let unread =
            |keyword: Token, clause| parse_error(keyword.start, statement.unread_clause(clause));
        let mut refined = Vec::new();
        loop {
            if let Some(with) = self.take(|t| t.is("WITH")) {
                if !statement.reads_selections() {
                    return Err(unread(with, "WITH"));
                }
                let at = self.peek().map_or(self.source.len(), |t| t.start);
                let term = self.count("WITH clause expects a term index")?;
                if refined.contains(&term) {
                    let message =
                        format!("term {term} is already refined by an earlier WITH clause");
                    return Err(parse_error(at, message));
                }
                refined.push(term);
                self.need(|t| t.is("IN"), "WITH <term> must be followed by IN <path>[|<path>…]")?;
                builder = builder.select_paths(term, self.paths('|', "WITH … IN")?);
            } else if let Some(via) = self.take(|t| t.is("VIA")) {
                if !statement.reads_connections() {
                    return Err(unread(via, "VIA"));
                }
                builder = builder.via(self.paths('~', "VIA")?);
            } else {
                return Ok(builder.build());
            }
        }
    }

    /// The head of a cube statement, from the fact name up to `FOR`.
    fn cube_head(&mut self) -> Result<(Statement, BuildOptions), SedaError> {
        let fact = self.name("CUBE requires a fact-table name")?;
        self.need(|t| t.is("BY"), "CUBE requires BY <dimension>[, <dimension>…]")?;
        let group_by = self.names("BY")?;
        let mut agg = AggFn::Sum;
        if self.keyword("AGG") {
            let name = self.word("AGG requires a function")?;
            agg = [AggFn::Sum, AggFn::Avg, AggFn::Count, AggFn::Min, AggFn::Max]
                .into_iter()
                .find(|agg| agg_name(*agg).eq_ignore_ascii_case(name.text))
                .ok_or_else(|| {
                    let message = format!(
                        "unknown aggregation function {:?} (expected sum|avg|count|min|max)",
                        name.text
                    );
                    parse_error(name.start, message)
                })?;
        }
        let mut measure = None;
        if self.keyword("MEASURE") {
            measure = Some(self.name("MEASURE requires a column name")?);
        }
        let mut options = BuildOptions::default();
        for (keyword, names) in [("ADD", &mut options.add), ("REMOVE", &mut options.remove)] {
            if self.keyword(keyword) {
                *names = self.names(keyword)?;
            }
        }
        Ok((Statement::Cube { fact, group_by, agg, measure }, options))
    }

    fn names(&mut self, clause: &str) -> Result<Vec<String>, SedaError> {
        let expected = format!("{clause} requires names separated by ','");
        let mut names = vec![self.name(&expected)?];
        while self.take(|t| t.kind == Kind::Comma).is_some() {
            names.push(self.name(&expected)?);
        }
        Ok(names)
    }

    /// A `separator`-delimited path list: the text of the words up to the
    /// next `WITH` / `VIA`, split at `separator`.
    fn paths(&mut self, separator: char, clause: &str) -> Result<Vec<String>, SedaError> {
        let first = self.pos;
        while self.take(|t| t.kind == Kind::Word && !t.is("WITH") && !t.is("VIA")).is_some() {}
        let words = &self.tokens[first..self.pos];
        let (start, text) = match (words.first(), words.last()) {
            (Some(head), Some(last)) => {
                (head.start, &self.source[head.start..last.start + last.text.len()])
            }
            _ => (self.source.len(), ""),
        };
        let paths: Vec<String> = text.split(separator).map(|p| p.trim().to_string()).collect();
        if paths.iter().any(|p| p.is_empty() || p.contains(char::is_whitespace)) {
            let message = format!("{clause} expects paths separated by {separator:?}: {text:?}");
            return Err(parse_error(start, message));
        }
        Ok(paths)
    }

    fn query(&mut self) -> Result<SedaQuery, SedaError> {
        let mut terms = vec![self.term()?];
        while self.and() {
            terms.push(self.term()?);
        }
        Ok(SedaQuery::new(terms))
    }

    fn term(&mut self) -> Result<QueryTerm, SedaError> {
        self.need(|t| t.kind == Kind::Open, "expected '(' opening a query term")?;
        let context = self.take(|t| t.kind == Kind::Word);
        if let Some(context) = context {
            // `a||b` or `a|` would parse an empty alternative as `*`, which
            // absorbs the disjunction and lifts the term's restriction.
            if context.text.contains('|') && context.text.split('|').any(str::is_empty) {
                let message = format!("empty alternative in context {:?}", context.text);
                return Err(parse_error(context.start, message));
            }
        }
        self.need(|t| t.kind == Kind::Comma, "expected ',' after the context of a query term")?;
        let search = match self.peek() {
            Some(t) if t.kind == Kind::Close => FullTextQuery::Any,
            _ => self.search(0)?.0,
        };
        self.need(|t| t.kind == Kind::Close, "expected ')' closing a query term")?;
        Ok(QueryTerm::new(ContextSpec::parse(context.map_or("", |t| t.text)), search))
    }

    /// `depth` when it is within the nesting limit.
    fn nested(&self, depth: usize) -> Result<usize, SedaError> {
        if depth > MAX_NESTING {
            let at = self.peek().map_or(self.source.len(), |t| t.start);
            return Err(parse_error(
                at,
                format!("search expression nests deeper than {MAX_NESTING}"),
            ));
        }
        Ok(depth)
    }

    fn join(
        &self,
        (left, left_height): Node,
        (right, right_height): Node,
        op: fn(Box<FullTextQuery>, Box<FullTextQuery>) -> FullTextQuery,
    ) -> Result<Node, SedaError> {
        let height = self.nested(left_height.max(right_height) + 1)?;
        Ok((op(Box::new(left), Box::new(right)), height))
    }

    /// `open` counts the parentheses the expression sits in.
    fn search(&mut self, open: usize) -> Result<Node, SedaError> {
        let mut node = self.conjunction(open)?;
        while self.keyword("OR") {
            let right = self.conjunction(open)?;
            node = self.join(node, right, FullTextQuery::Or)?;
        }
        Ok(node)
    }

    fn conjunction(&mut self, open: usize) -> Result<Node, SedaError> {
        let mut node = self.negation(open)?;
        while self.and() {
            let right = self.negation(open)?;
            node = self.join(node, right, FullTextQuery::And)?;
        }
        Ok(node)
    }

    fn negation(&mut self, open: usize) -> Result<Node, SedaError> {
        let mut nots = 0;
        while self.keyword("NOT") {
            nots = self.nested(nots + 1)?;
        }
        let (mut query, height) = self.primary(open)?;
        let height = self.nested(height + nots)?;
        for _ in 0..nots {
            query = FullTextQuery::Not(Box::new(query));
        }
        Ok((query, height))
    }

    fn primary(&mut self, open: usize) -> Result<Node, SedaError> {
        const EXPECTED: &str = "expected a search expression";
        let Some(token) = self.peek() else { return self.expected(EXPECTED) };
        if token.kind == Kind::Open {
            let open = self.nested(open + 1)?;
            self.pos += 1;
            let node = self.search(open)?;
            self.need(|t| t.kind == Kind::Close, "expected ')' closing a search group")?;
            return Ok(node);
        }
        let query = match token.kind {
            Kind::Phrase => {
                self.pos += 1;
                FullTextQuery::phrase(token.text)
            }
            Kind::Word if token.text == "*" => {
                self.pos += 1;
                FullTextQuery::Any
            }
            Kind::Word if !token.is_operator() => self.bag()?,
            _ => return self.expected(EXPECTED),
        };
        // An empty bag or phrase (`-`, `""`) is the match-all `*` it renders as.
        Ok((if query.is_match_all() { FullTextQuery::Any } else { query }, 0))
    }

    /// The keyword bag of the words up to the next operator or punctuation.
    fn bag(&mut self) -> Result<FullTextQuery, SedaError> {
        let mut words = Vec::new();
        while let Some(word) = self.take(|t| t.kind == Kind::Word && !t.is_operator()) {
            if word.text.contains('*') {
                return Err(parse_error(word.start, "'*' must stand alone in a search"));
            }
            // A bag term that reads as an operator would not survive
            // rendering (`x-and` is the bag `x and`): it belongs in quotes.
            for term in terms(word.text) {
                if ["and", "or", "not"].contains(&term.as_str()) {
                    return Err(parse_error(word.start, format!("quote the keyword {term:?}")));
                }
                words.push(term);
            }
        }
        Ok(FullTextQuery::Keywords(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(text: &str) -> Result<FullTextQuery, SedaError> {
        parse_query(&format!("(a, {text})")).map(|mut query| query.terms.remove(0).search)
    }

    fn kw(words: &[&str]) -> FullTextQuery {
        FullTextQuery::Keywords(words.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn tokens_are_slices_of_the_text_with_their_offsets() {
        let tokens = lex(r#"TOPK(a,"x y")∧ b"#).unwrap();
        let kinds: Vec<_> = tokens.iter().map(|t| (t.kind, t.text, t.start)).collect();
        assert_eq!(
            kinds,
            [
                (Kind::Word, "TOPK", 0),
                (Kind::Open, "(", 4),
                (Kind::Word, "a", 5),
                (Kind::Comma, ",", 6),
                (Kind::Phrase, "x y", 7),
                (Kind::Close, ")", 12),
                (Kind::Word, "∧", 13),
                (Kind::Word, "b", 17),
            ]
        );
        let err = lex(r#"(a, "open"#).unwrap_err();
        assert_eq!(err, SedaError::Parse("unterminated phrase quote (at byte 4)".into()));
    }

    #[test]
    fn search_leaves_parse() {
        assert_eq!(search("*").unwrap(), FullTextQuery::Any);
        assert_eq!(search("\"United States\"").unwrap(), FullTextQuery::phrase("united states"));
        assert_eq!(search("import partners").unwrap(), kw(&["import", "partners"]));
        // An empty bag or phrase is the match-all it renders as.
        assert_eq!(search("-").unwrap(), FullTextQuery::Any);
        assert_eq!(search("\"\"").unwrap(), FullTextQuery::Any);
    }

    #[test]
    fn and_binds_tighter_than_or_and_not_tightest() {
        let q = search("china OR canada AND mexico").unwrap();
        match q {
            FullTextQuery::Or(left, right) => {
                assert_eq!(*left, kw(&["china"]));
                assert!(matches!(*right, FullTextQuery::And(_, _)));
            }
            other => panic!("unexpected parse {other:?}"),
        }
        let q = search("NOT a ∧ b").unwrap();
        let expected = FullTextQuery::And(
            Box::new(FullTextQuery::Not(Box::new(kw(&["a"])))),
            Box::new(kw(&["b"])),
        );
        assert_eq!(q, expected);
    }

    #[test]
    fn parentheses_and_not_group_searches() {
        let q = search("(china OR canada) AND NOT mexico").unwrap();
        assert!(q.matches_text("china trade"));
        assert!(!q.matches_text("china mexico trade"));
        assert!(q.matches_text("canada"));
        assert!(!q.matches_text("brazil"));
    }

    #[test]
    fn malformed_searches_are_parse_errors() {
        for text in [
            "\"unterminated",
            "(a OR b",
            "a ) b",
            "a OR",
            "AND a",
            "x*",
            "a * b",
            "a, b",
            "x-and",
            "\"x\" y",
        ] {
            assert!(matches!(search(text), Err(SedaError::Parse(_))), "{text}");
        }
    }

    #[test]
    fn searches_render_reparseable_text() {
        for text in [
            "*",
            "china canada",
            "\"united states\"",
            "(china OR canada) AND NOT mexico",
            "(NOT (a AND b)) OR \"c d\"",
            "\"and\" OR x",
        ] {
            let parsed = search(text).unwrap();
            let rendered = parsed.to_string();
            assert_eq!(search(&rendered).unwrap(), parsed, "{text:?} rendered as {rendered:?}");
        }
    }

    #[test]
    fn errors_name_what_was_expected_and_where() {
        let err = parse_request("TOPK 3 FOR (a, x) WITH 0 ON /p").unwrap_err();
        let expected = "WITH <term> must be followed by IN <path>[|<path>…], found \"ON\"";
        assert_eq!(err, SedaError::Parse(format!("{expected} (at byte 25)")));
        let err = parse_request("CONTEXTS FOR (a, x").unwrap_err();
        let expected = "expected ')' closing a query term, found the end (at byte 18)";
        assert_eq!(err, SedaError::Parse(expected.into()));
    }

    /// `shape(n)` nests a search `n` levels deep.
    fn at_the_limit(shape: impl Fn(usize) -> String) {
        let deepest = search(&shape(MAX_NESTING)).unwrap();
        let rendered = deepest.to_string();
        assert_eq!(search(&rendered).unwrap(), deepest, "the deepest search must round-trip");
        let err = search(&shape(MAX_NESTING + 1)).unwrap_err();
        assert!(matches!(&err, SedaError::Parse(m) if m.contains("nests deeper")), "{err:?}");
    }

    #[test]
    fn search_nesting_stops_at_the_limit() {
        at_the_limit(|n| format!("{}x{}", "(".repeat(n), ")".repeat(n)));
        at_the_limit(|n| format!("{}x", "NOT ".repeat(n)));
        at_the_limit(|n| format!("x{}", " OR x".repeat(n)));
        at_the_limit(|n| format!("{}x{}", "(NOT ".repeat(n), ")".repeat(n)));
        at_the_limit(|n| format!("{}x", "x AND (".repeat(n)) + &")".repeat(n));
    }
}
