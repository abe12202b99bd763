//! Full-text search expressions.
//!
//! Definition 3 of the paper allows the `search_query` component of a query
//! term to be "a simple bag of keywords, a phrase query or a boolean
//! combination of those".  [`FullTextQuery`] models exactly that, plus the
//! wildcard `*` used throughout the paper's examples (`(trade_country, ∗)`).

use crate::tokenize::terms;

/// A full-text search expression over node content.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub(crate) fn positive_terms(&self) -> Vec<String> {
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
    pub(crate) fn single_positive_term(&self) -> Option<&str> {
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
    pub(crate) fn matches_tokens<T: AsRef<str>>(&self, tokens: &[T]) -> bool {
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
}

impl std::fmt::Display for FullTextQuery {
    /// Renders the query as the search component of a `seda-core` query
    /// term, which parses back to the same query unless a keyword or phrase
    /// list is empty (it renders as the equivalent `*`).
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

    fn kw(word: &str) -> FullTextQuery {
        FullTextQuery::keywords(word)
    }

    fn and(a: FullTextQuery, b: FullTextQuery) -> FullTextQuery {
        FullTextQuery::And(Box::new(a), Box::new(b))
    }

    fn or(a: FullTextQuery, b: FullTextQuery) -> FullTextQuery {
        FullTextQuery::Or(Box::new(a), Box::new(b))
    }

    fn not(a: FullTextQuery) -> FullTextQuery {
        FullTextQuery::Not(Box::new(a))
    }

    #[test]
    fn positive_terms_exclude_negations() {
        let q = and(kw("import"), not(kw("export")));
        assert_eq!(q.positive_terms(), vec!["import".to_string()]);
    }

    #[test]
    fn match_all_detection() {
        assert!(FullTextQuery::Keywords(vec![]).is_match_all());
        assert!(!FullTextQuery::keywords("x").is_match_all());
    }

    #[test]
    fn requires_token_holds_exactly_when_empty_content_and_foreign_content_fail() {
        use FullTextQuery::Any;
        let cases = [
            ("*", Any, false),
            ("china", kw("china"), true),
            ("\"united states\"", FullTextQuery::phrase("united states"), true),
            ("china AND NOT mexico", and(kw("china"), not(kw("mexico"))), true),
            ("NOT mexico AND china", and(not(kw("mexico")), kw("china")), true),
            ("china OR canada", or(kw("china"), kw("canada")), true),
            ("NOT china", not(kw("china")), false),
            ("china OR *", or(kw("china"), Any), false),
            ("china OR NOT mexico", or(kw("china"), not(kw("mexico"))), false),
            ("NOT (NOT china)", not(not(kw("china"))), false),
            ("(china OR *) AND canada", and(or(kw("china"), Any), kw("canada")), true),
        ];
        for (text, q, expected) in cases {
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
    fn degenerate_empty_lists_render_as_match_all() {
        assert_eq!(FullTextQuery::Keywords(vec![]).to_string(), "*");
        assert_eq!(FullTextQuery::Phrase(vec![]).to_string(), "*");
    }
}
