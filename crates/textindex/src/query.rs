//! Full-text search expressions.
//!
//! Definition 3 of the paper allows the `search_query` component of a query
//! term to be "a simple bag of keywords, a phrase query or a boolean
//! combination of those".  [`FullTextQuery`] models exactly that, plus the
//! wildcard `*` used throughout the paper's examples (`(trade_country, ∗)`).

use serde::{Deserialize, Serialize};

use crate::tokenize::terms;

/// A full-text search expression over node content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FullTextQuery {
    /// `*` — matches every node that has any text content.
    Any,
    /// Bag of keywords; all keywords must occur in the node content
    /// (conjunctive semantics, order-insensitive).
    Keywords(Vec<String>),
    /// Phrase: the keywords must occur consecutively, in order.
    Phrase(Vec<String>),
    /// Both sub-queries must match.
    And(Box<FullTextQuery>, Box<FullTextQuery>),
    /// At least one sub-query must match.
    Or(Box<FullTextQuery>, Box<FullTextQuery>),
    /// The sub-query must not match.
    Not(Box<FullTextQuery>),
}

impl FullTextQuery {
    /// Builds a keyword query from free text.
    pub fn keywords(text: &str) -> Self {
        FullTextQuery::Keywords(terms(text))
    }

    /// Builds a phrase query from free text.
    pub fn phrase(text: &str) -> Self {
        FullTextQuery::Phrase(terms(text))
    }

    /// All positive terms mentioned anywhere in the query (used to select
    /// posting lists; negated terms are excluded).
    pub fn positive_terms(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_terms(&mut out, true);
        out.sort();
        out.dedup();
        out
    }

    fn collect_terms(&self, out: &mut Vec<String>, positive: bool) {
        match self {
            FullTextQuery::Any => {}
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => {
                if positive {
                    out.extend(ts.iter().cloned());
                }
            }
            FullTextQuery::And(a, b) | FullTextQuery::Or(a, b) => {
                a.collect_terms(out, positive);
                b.collect_terms(out, positive);
            }
            FullTextQuery::Not(inner) => inner.collect_terms(out, !positive),
        }
    }

    /// The query's single positive term, when the whole query is exactly one
    /// keyword (or a one-token phrase, which is equivalent).  Such queries
    /// are satisfied by precisely the nodes on the term's posting list, so
    /// the index can answer them from the pre-sorted postings alone.
    pub fn single_positive_term(&self) -> Option<&str> {
        match self {
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) if ts.len() == 1 => {
                Some(&ts[0])
            }
            _ => None,
        }
    }

    /// True for queries that match every node with content (`*` or an empty
    /// keyword list).
    pub fn is_match_all(&self) -> bool {
        match self {
            FullTextQuery::Any => true,
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => ts.is_empty(),
            _ => false,
        }
    }

    /// True when no token list without one of the query's positive terms can
    /// satisfy it — so every match is an indexed node on a positive term's
    /// posting list, and [`crate::NodeIndex::evaluate_in_paths`] (which draws
    /// its candidates from those lists) returns *every* node
    /// [`FullTextQuery::matches_text`] accepts.  Conservative: a negation
    /// never qualifies, whatever it negates.
    pub fn requires_token(&self) -> bool {
        match self {
            FullTextQuery::Any | FullTextQuery::Not(_) => false,
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => !ts.is_empty(),
            FullTextQuery::And(a, b) => a.requires_token() || b.requires_token(),
            FullTextQuery::Or(a, b) => a.requires_token() && b.requires_token(),
        }
    }

    /// Evaluates the query against a tokenised content string (owned tokens
    /// fresh from the tokenizer, or the node index's dictionary strings).
    pub fn matches_tokens<T: AsRef<str>>(&self, tokens: &[T]) -> bool {
        match self {
            FullTextQuery::Any => true,
            FullTextQuery::Keywords(ts) => {
                ts.iter().all(|t| tokens.iter().any(|tok| tok.as_ref() == t))
            }
            FullTextQuery::Phrase(ts) => {
                if ts.is_empty() {
                    return true;
                }
                if tokens.len() < ts.len() {
                    return false;
                }
                tokens.windows(ts.len()).any(|w| w.iter().zip(ts).all(|(a, b)| a.as_ref() == b))
            }
            FullTextQuery::And(a, b) => a.matches_tokens(tokens) && b.matches_tokens(tokens),
            FullTextQuery::Or(a, b) => a.matches_tokens(tokens) || b.matches_tokens(tokens),
            FullTextQuery::Not(inner) => !inner.matches_tokens(tokens),
        }
    }

    /// Evaluates the query against raw text (tokenising it first).
    pub fn matches_text(&self, text: &str) -> bool {
        self.matches_tokens(&terms(text))
    }

    /// Parses the textual search-query syntax used by examples and tests:
    ///
    /// * `*` — match-all,
    /// * `"quoted text"` — phrase,
    /// * bare words — keyword bag,
    /// * `AND`, `OR`, `NOT` (case-insensitive) and parentheses for boolean
    ///   combinations; `AND` binds tighter than `OR`.
    pub fn parse(input: &str) -> Result<Self, QueryParseError> {
        let tokens = lex(input)?;
        let mut parser = Parser { tokens, pos: 0 };
        let query = parser.parse_or()?;
        if parser.pos != parser.tokens.len() {
            return Err(QueryParseError::new(format!(
                "unexpected trailing input at token {}",
                parser.pos
            )));
        }
        Ok(query)
    }
}

impl std::fmt::Display for FullTextQuery {
    /// Renders the query in the textual syntax accepted by
    /// [`FullTextQuery::parse`], so `parse(&q.to_string())` reproduces `q`
    /// for every non-degenerate query (empty keyword/phrase lists render as
    /// the equivalent `*`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FullTextQuery::Any => write!(f, "*"),
            FullTextQuery::Keywords(ts) if ts.is_empty() => write!(f, "*"),
            FullTextQuery::Keywords(ts) => write!(f, "{}", ts.join(" ")),
            FullTextQuery::Phrase(ts) if ts.is_empty() => write!(f, "*"),
            FullTextQuery::Phrase(ts) => write!(f, "\"{}\"", ts.join(" ")),
            FullTextQuery::And(a, b) => write!(f, "({a} AND {b})"),
            FullTextQuery::Or(a, b) => write!(f, "({a} OR {b})"),
            FullTextQuery::Not(inner) => write!(f, "(NOT {inner})"),
        }
    }
}

/// Error produced when a search-query string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    message: String,
}

impl QueryParseError {
    fn new(message: impl Into<String>) -> Self {
        QueryParseError { message: message.into() }
    }
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for QueryParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Lexeme {
    Word(String),
    Phrase(String),
    Star,
    LParen,
    RParen,
    And,
    Or,
    Not,
}

fn lex(input: &str) -> Result<Vec<Lexeme>, QueryParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Lexeme::LParen);
            }
            ')' => {
                chars.next();
                out.push(Lexeme::RParen);
            }
            '*' => {
                chars.next();
                out.push(Lexeme::Star);
            }
            '"' => {
                chars.next();
                let mut phrase = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    phrase.push(c);
                }
                if !closed {
                    return Err(QueryParseError::new("unterminated phrase quote"));
                }
                out.push(Lexeme::Phrase(phrase));
            }
            _ => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '(' || c == ')' || c == '"' || c == '*' {
                        break;
                    }
                    word.push(c);
                    chars.next();
                }
                match word.to_ascii_uppercase().as_str() {
                    "AND" => out.push(Lexeme::And),
                    "OR" => out.push(Lexeme::Or),
                    "NOT" => out.push(Lexeme::Not),
                    _ => out.push(Lexeme::Word(word)),
                }
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Lexeme>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Lexeme> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Lexeme> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn parse_or(&mut self) -> Result<FullTextQuery, QueryParseError> {
        let mut left = self.parse_and()?;
        while matches!(self.peek(), Some(Lexeme::Or)) {
            self.next();
            let right = self.parse_and()?;
            left = FullTextQuery::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<FullTextQuery, QueryParseError> {
        let mut left = self.parse_unary()?;
        while matches!(self.peek(), Some(Lexeme::And)) {
            self.next();
            let right = self.parse_unary()?;
            left = FullTextQuery::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<FullTextQuery, QueryParseError> {
        if matches!(self.peek(), Some(Lexeme::Not)) {
            self.next();
            let inner = self.parse_unary()?;
            return Ok(FullTextQuery::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<FullTextQuery, QueryParseError> {
        match self.next() {
            Some(Lexeme::Star) => Ok(FullTextQuery::Any),
            Some(Lexeme::Phrase(p)) => Ok(FullTextQuery::phrase(&p)),
            Some(Lexeme::Word(w)) => {
                // Greedily absorb subsequent bare words into one keyword bag.
                let mut words = vec![w];
                while let Some(Lexeme::Word(next)) = self.peek() {
                    words.push(next.clone());
                    self.pos += 1;
                }
                Ok(FullTextQuery::Keywords(words.iter().flat_map(|w| terms(w)).collect()))
            }
            Some(Lexeme::LParen) => {
                let inner = self.parse_or()?;
                match self.next() {
                    Some(Lexeme::RParen) => Ok(inner),
                    _ => Err(QueryParseError::new("expected closing parenthesis")),
                }
            }
            other => Err(QueryParseError::new(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_bag_requires_all_terms() {
        let q = FullTextQuery::keywords("United States");
        assert!(q.matches_text("the united states of america"));
        assert!(!q.matches_text("united kingdom"));
    }

    #[test]
    fn phrase_requires_adjacency_and_order() {
        let q = FullTextQuery::phrase("United States");
        assert!(q.matches_text("trade partners of the United States"));
        assert!(!q.matches_text("united arab emirates and other states"));
        assert!(!q.matches_text("states united"));
    }

    #[test]
    fn any_matches_everything() {
        assert!(FullTextQuery::Any.matches_text("anything"));
        assert!(FullTextQuery::Any.is_match_all());
    }

    #[test]
    fn boolean_combinations() {
        let q = FullTextQuery::And(
            Box::new(FullTextQuery::keywords("import")),
            Box::new(FullTextQuery::Not(Box::new(FullTextQuery::keywords("export")))),
        );
        assert!(q.matches_text("import partners"));
        assert!(!q.matches_text("import and export partners"));
    }

    #[test]
    fn parse_star() {
        assert_eq!(FullTextQuery::parse("*").unwrap(), FullTextQuery::Any);
    }

    #[test]
    fn parse_phrase_and_keywords() {
        assert_eq!(
            FullTextQuery::parse("\"United States\"").unwrap(),
            FullTextQuery::Phrase(vec!["united".into(), "states".into()])
        );
        assert_eq!(
            FullTextQuery::parse("import partners").unwrap(),
            FullTextQuery::Keywords(vec!["import".into(), "partners".into()])
        );
    }

    #[test]
    fn parse_boolean_precedence() {
        // AND binds tighter than OR.
        let q = FullTextQuery::parse("china OR canada AND mexico").unwrap();
        match q {
            FullTextQuery::Or(left, right) => {
                assert_eq!(*left, FullTextQuery::Keywords(vec!["china".into()]));
                assert!(matches!(*right, FullTextQuery::And(_, _)));
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn parse_parentheses_and_not() {
        let q = FullTextQuery::parse("(china OR canada) AND NOT mexico").unwrap();
        assert!(q.matches_text("china trade"));
        assert!(!q.matches_text("china mexico trade"));
        assert!(q.matches_text("canada"));
        assert!(!q.matches_text("brazil"));
    }

    #[test]
    fn parse_errors() {
        assert!(FullTextQuery::parse("\"unterminated").is_err());
        assert!(FullTextQuery::parse("(a OR b").is_err());
        assert!(FullTextQuery::parse("a ) b").is_err());
    }

    #[test]
    fn positive_terms_exclude_negations() {
        let q = FullTextQuery::parse("import AND NOT export").unwrap();
        assert_eq!(q.positive_terms(), vec!["import".to_string()]);
    }

    #[test]
    fn match_all_detection() {
        assert!(FullTextQuery::Keywords(vec![]).is_match_all());
        assert!(!FullTextQuery::keywords("x").is_match_all());
    }

    #[test]
    fn requires_token_holds_exactly_when_empty_content_and_foreign_content_fail() {
        let cases = [
            ("*", false),
            ("china", true),
            ("\"united states\"", true),
            ("china AND NOT mexico", true),
            ("NOT mexico AND china", true),
            ("china OR canada", true),
            ("NOT china", false),
            ("china OR *", false),
            ("china OR NOT mexico", false),
            ("NOT (NOT china)", false),
            ("(china OR *) AND canada", true),
        ];
        for (text, expected) in cases {
            let q = FullTextQuery::parse(text).unwrap();
            assert_eq!(q.requires_token(), expected, "{text}");
            if expected {
                // Content holding none of the positive terms cannot match.
                assert!(!q.matches_text(""), "{text}");
                assert!(!q.matches_text("brazil"), "{text}");
            }
        }
        assert!(!FullTextQuery::Keywords(vec![]).requires_token());
        assert!(!FullTextQuery::Phrase(vec![]).requires_token());
    }

    #[test]
    fn display_renders_reparseable_text() {
        for text in [
            "*",
            "china canada",
            "\"united states\"",
            "(china OR canada) AND NOT mexico",
            "(NOT (a AND b)) OR \"c d\"",
        ] {
            let parsed = FullTextQuery::parse(text).unwrap();
            let rendered = parsed.to_string();
            assert_eq!(
                FullTextQuery::parse(&rendered).unwrap(),
                parsed,
                "display of {text:?} must reparse to the same query (got {rendered:?})"
            );
        }
        // Degenerate empty bags render as the equivalent match-all.
        assert_eq!(FullTextQuery::Keywords(vec![]).to_string(), "*");
        assert_eq!(FullTextQuery::Phrase(vec![]).to_string(), "*");
    }
}
