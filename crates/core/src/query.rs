//! The SEDA query language (Sec. 3, Definition 3).
//!
//! A SEDA query is a set of *query terms* `(context, search_query)`.  The
//! context component is empty, a root-to-leaf path, a tag-name keyword
//! (wildcards allowed), or a disjunction of those; the search-query component
//! is a full-text expression.  The textual form used by examples mirrors the
//! paper's notation:
//!
//! ```text
//! (*, "United States") AND (trade_country, *) AND (percentage, *)
//! ```

use seda_textindex::FullTextQuery;
use seda_xmlstore::{Collection, PathId};

use crate::error::SedaError;

/// The context component of a query term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextSpec {
    /// Empty context (`*`): any node may satisfy the term.
    Any,
    /// A full root-to-leaf path in `/a/b/c` notation.
    Path(String),
    /// A tag-name keyword; `*` wildcards are allowed (e.g. `trade*`).
    Tag(String),
    /// A disjunction of paths and tag names.
    Disjunction(Vec<ContextSpec>),
}

impl ContextSpec {
    /// Parses the textual context component: `*` (any), `/a/b/c` (path),
    /// `a|b` (disjunction), anything else (tag name, possibly with `*`
    /// wildcards).  Disjunctions are normalised through
    /// [`ContextSpec::disjunction`], so `a|b|c` parses to one flat 3-way
    /// disjunction, never nested pairs.
    pub fn parse(input: &str) -> Self {
        let trimmed = input.trim();
        if trimmed.is_empty() || trimmed == "*" {
            return ContextSpec::Any;
        }
        if trimmed.contains('|') {
            return ContextSpec::disjunction(trimmed.split('|').map(ContextSpec::parse).collect());
        }
        if trimmed.starts_with('/') {
            ContextSpec::Path(trimmed.to_string())
        } else {
            ContextSpec::Tag(trimmed.to_string())
        }
    }

    /// Normalising disjunction constructor: nested disjunctions are
    /// flattened, duplicates removed (keeping first occurrence), an
    /// unrestricted alternative absorbs the whole disjunction, and a
    /// single-alternative disjunction collapses to that alternative.
    pub fn disjunction(specs: Vec<ContextSpec>) -> ContextSpec {
        fn flatten(spec: ContextSpec, out: &mut Vec<ContextSpec>) {
            match spec {
                ContextSpec::Disjunction(inner) => {
                    for s in inner {
                        flatten(s, out);
                    }
                }
                other => out.push(other),
            }
        }
        let mut flat = Vec::new();
        for spec in specs {
            flatten(spec, &mut flat);
        }
        if flat.iter().any(ContextSpec::is_any) {
            return ContextSpec::Any;
        }
        let mut deduped: Vec<ContextSpec> = Vec::with_capacity(flat.len());
        for spec in flat {
            if !deduped.contains(&spec) {
                deduped.push(spec);
            }
        }
        match deduped.len() {
            0 => ContextSpec::Any,
            1 => deduped.pop().expect("invariant: the len == 1 arm holds exactly one element"),
            _ => ContextSpec::Disjunction(deduped),
        }
    }

    /// True when the spec places no restriction at all.
    pub fn is_any(&self) -> bool {
        matches!(self, ContextSpec::Any)
    }

    /// Glob matching for tag-name patterns, anchored at both ends: the text
    /// before the first `*` must be a prefix of `name`, the text after the
    /// last `*` must be a suffix of what remains after matching every middle
    /// piece left-to-right.
    fn tag_matches(pattern: &str, name: &str) -> bool {
        if !pattern.contains('*') {
            return pattern == name;
        }
        let pieces: Vec<&str> = pattern.split('*').collect();
        let (first, tail) =
            pieces.split_first().expect("invariant: split always yields at least one piece");
        let Some(mut rest) = name.strip_prefix(first) else {
            return false;
        };
        let (last, middle) = tail
            .split_last()
            .expect("invariant: a pattern with '*' splits into two or more pieces");
        for piece in middle {
            if piece.is_empty() {
                continue;
            }
            match rest.find(piece) {
                Some(pos) => rest = &rest[pos + piece.len()..],
                None => return false,
            }
        }
        // End anchor: the final piece must be a suffix of the *remaining*
        // text (not merely of `name`, which could overlap already-consumed
        // characters).
        rest.ends_with(last)
    }

    /// Definition 3(2): the set of distinct paths this spec allows, or `None`
    /// for an unrestricted spec.  A node satisfies the spec exactly when its
    /// context is in the set; the index takes the set as the term's context
    /// restriction.
    pub fn allowed_paths(&self, collection: &Collection) -> Option<Vec<PathId>> {
        match self {
            ContextSpec::Any => None,
            ContextSpec::Path(path) => Some(
                collection
                    .paths()
                    .get_str(collection.symbols(), path)
                    .map(|p| vec![p])
                    .unwrap_or_default(),
            ),
            // A plain tag names one symbol: compare leaves as integers, and
            // a tag the collection never interned matches nothing.
            ContextSpec::Tag(tag) if !tag.contains('*') => Some(
                collection
                    .symbols()
                    .get(tag)
                    .map(|leaf| collection.paths().paths_with_leaf(leaf))
                    .unwrap_or_default(),
            ),
            ContextSpec::Tag(tag) => Some(
                collection
                    .paths()
                    .iter()
                    .filter(|(_, p)| {
                        p.leaf()
                            .map(|leaf| Self::tag_matches(tag, collection.symbols().resolve(leaf)))
                            .unwrap_or(false)
                    })
                    .map(|(id, _)| id)
                    .collect(),
            ),
            ContextSpec::Disjunction(specs) => {
                let mut any_unrestricted = false;
                let mut paths = Vec::new();
                for s in specs {
                    match s.allowed_paths(collection) {
                        None => any_unrestricted = true,
                        Some(p) => paths.extend(p),
                    }
                }
                if any_unrestricted {
                    None
                } else {
                    paths.sort();
                    paths.dedup();
                    Some(paths)
                }
            }
        }
    }
}

/// One query term: `(context, search_query)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTerm {
    /// The context component.
    pub context: ContextSpec,
    /// The full-text search component.
    pub search: FullTextQuery,
}

impl std::fmt::Display for ContextSpec {
    /// Renders the spec in the textual syntax accepted by
    /// [`ContextSpec::parse`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextSpec::Any => write!(f, "*"),
            ContextSpec::Path(p) => write!(f, "{p}"),
            ContextSpec::Tag(t) => write!(f, "{t}"),
            ContextSpec::Disjunction(ds) => {
                for (i, d) in ds.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl QueryTerm {
    /// Creates a term from components.
    pub fn new(context: ContextSpec, search: FullTextQuery) -> Self {
        QueryTerm { context, search }
    }

    /// A human-readable label, used as column name in R(q); identical to the
    /// term's canonical textual form.
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for QueryTerm {
    /// Renders the term as `(context, search)`, reparseable by
    /// [`SedaQuery::parse`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.context, self.search)
    }
}

/// A SEDA query: a set of query terms.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SedaQuery {
    /// The query terms, in user order.
    pub terms: Vec<QueryTerm>,
}

impl SedaQuery {
    /// Builds a query from terms.
    pub fn new(terms: Vec<QueryTerm>) -> Self {
        SedaQuery { terms }
    }

    /// Parses the paper-style notation `(context, search) AND …` (the
    /// `query` rule of [`crate::grammar`]).
    pub fn parse(input: &str) -> Result<Self, SedaError> {
        crate::grammar::parse_query(input)
    }

    /// Number of query terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the query has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

impl std::fmt::Display for SedaQuery {
    /// Renders the query in the canonical textual form accepted by
    /// [`SedaQuery::parse`]: `parse(&q.to_string())` reproduces `q` for every
    /// query built from parseable components.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, term) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{term}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    #[test]
    fn parses_query_1_notation() {
        let q =
            SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
                .unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.terms[0].context, ContextSpec::Any);
        assert_eq!(q.terms[0].search, FullTextQuery::phrase("United States"));
        assert_eq!(q.terms[1].context, ContextSpec::Tag("trade_country".into()));
        assert_eq!(q.terms[1].search, FullTextQuery::Any);
    }

    #[test]
    fn parses_unicode_conjunction_and_paths() {
        let q = SedaQuery::parse(r#"(/country/name, "Romania") ∧ (/country/year, 2006)"#).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.terms[0].context, ContextSpec::Path("/country/name".into()));
        assert_eq!(q.terms[1].search, FullTextQuery::Keywords(vec!["2006".into()]));
    }

    #[test]
    fn a_conjunction_sign_inside_a_phrase_is_phrase_text() {
        let q = SedaQuery::parse(r#"(name, "x ∧ y") ∧ (year, *)"#).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.terms[0].search, FullTextQuery::Phrase(vec!["x".into(), "y".into()]));
        assert_eq!(q.terms[1].context, ContextSpec::Tag("year".into()));
    }

    #[test]
    fn the_term_separator_is_a_case_insensitive_word() {
        let expected = SedaQuery::parse("(a, x) AND (b, y) AND (c, *)").unwrap();
        for text in ["(a, x) And (b, y) aNd (c, *)", "(a, x)and(b, y) AND(c, *)"] {
            assert_eq!(SedaQuery::parse(text).unwrap(), expected, "{text}");
        }
        // A word that merely starts with the letters is no separator.
        assert!(SedaQuery::parse("(a, x) Andorra (b, y)").is_err());
        // A separator is required between terms, and a term after it.
        for text in ["(a, x) AND", "(a, x) (b, y)"] {
            assert!(matches!(SedaQuery::parse(text), Err(SedaError::Parse(_))), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(SedaQuery::parse("").is_err());
        assert!(SedaQuery::parse("country, Romania").is_err());
        assert!(SedaQuery::parse("(country Romania)").is_err());
        assert!(SedaQuery::parse("(country, \"unterminated)").is_err());
    }

    #[test]
    fn an_empty_context_alternative_is_malformed() {
        for text in ["(trade_country|, *)", "(a||b, *)", "(|a, x)", "(a| |b, x)", "(|, x)"] {
            let err = SedaQuery::parse(text).unwrap_err();
            assert!(matches!(&err, SedaError::Parse(m) if m.contains("empty alternative")));
        }
        // An explicit `*` alternative still absorbs the disjunction, and an
        // empty context without alternatives is the empty context.
        assert_eq!(SedaQuery::parse("(a|*, x)").unwrap().terms[0].context, ContextSpec::Any);
        assert_eq!(SedaQuery::parse("( , x)").unwrap().terms[0].context, ContextSpec::Any);
        let q = SedaQuery::parse("(a|b, x)").unwrap();
        assert_eq!(q.terms[0].context, ContextSpec::parse("a|b"));
    }

    #[test]
    fn context_spec_parsing() {
        assert_eq!(ContextSpec::parse("*"), ContextSpec::Any);
        assert_eq!(ContextSpec::parse(" /a/b "), ContextSpec::Path("/a/b".into()));
        assert_eq!(ContextSpec::parse("trade_country"), ContextSpec::Tag("trade_country".into()));
        match ContextSpec::parse("/a/b|name") {
            ContextSpec::Disjunction(ds) => assert_eq!(ds.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn context_matching_against_nodes() {
        let c = parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name>
                 <economy><import_partners><item>
                   <trade_country>China</trade_country></item></import_partners></economy>
               </country>"#,
        )])
        .unwrap();
        let name_path = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let name_node = c.nodes_with_path(name_path)[0];
        let allows = |spec: ContextSpec| {
            let context = c.context(name_node).unwrap();
            spec.allowed_paths(&c).is_none_or(|paths| paths.contains(&context))
        };
        assert!(allows(ContextSpec::Any));
        assert!(allows(ContextSpec::Tag("name".into())));
        assert!(allows(ContextSpec::Tag("na*".into())));
        assert!(!allows(ContextSpec::Tag("trade_country".into())));
        assert!(allows(ContextSpec::Path("/country/name".into())));
        assert!(!allows(ContextSpec::Path("/country".into())));
        assert!(allows(ContextSpec::parse("/country/name|trade_country")));
    }

    #[test]
    fn allowed_paths_resolution() {
        let c = parse_collection(vec![(
            "us.xml",
            r#"<country>
                 <economy>
                   <import_partners><item><trade_country>China</trade_country><percentage>15</percentage></item></import_partners>
                   <export_partners><item><trade_country>Canada</trade_country><percentage>3</percentage></item></export_partners>
                 </economy>
               </country>"#,
        )])
        .unwrap();
        assert!(ContextSpec::Any.allowed_paths(&c).is_none());
        let tag = ContextSpec::Tag("trade_country".into());
        assert_eq!(tag.allowed_paths(&c).unwrap().len(), 2);
        let path = ContextSpec::Path("/country/economy/import_partners/item/percentage".into());
        assert_eq!(path.allowed_paths(&c).unwrap().len(), 1);
        let missing = ContextSpec::Path("/country/missing".into());
        assert!(missing.allowed_paths(&c).unwrap().is_empty());
        let disj = ContextSpec::parse("trade_country|percentage");
        assert_eq!(disj.allowed_paths(&c).unwrap().len(), 4);
    }

    #[test]
    fn tag_wildcards() {
        assert!(ContextSpec::tag_matches("trade*", "trade_country"));
        assert!(ContextSpec::tag_matches("*country", "trade_country"));
        assert!(ContextSpec::tag_matches("*ade*", "trade_country"));
        assert!(!ContextSpec::tag_matches("trade", "trade_country"));
        assert!(!ContextSpec::tag_matches("x*", "trade_country"));
        assert!(ContextSpec::tag_matches("*", "anything"));
    }

    #[test]
    fn tag_wildcards_are_anchored_at_both_ends() {
        // Start anchor: the text before the first '*' must be a prefix.
        assert!(!ContextSpec::tag_matches("trade*", "xtrade_country"));
        // End anchor: the text after the last '*' must be a suffix.
        assert!(!ContextSpec::tag_matches("*country", "trade_country_x"));
        // The suffix must live in the text remaining after the middle pieces
        // matched; an earlier overlapping occurrence does not count.
        assert!(!ContextSpec::tag_matches("ab*b", "ab"));
        assert!(ContextSpec::tag_matches("ab*b", "abb"));
        assert!(ContextSpec::tag_matches("a*b*c", "a_b_c"));
        assert!(!ContextSpec::tag_matches("a*b*c", "a_c_b"));
        // Adjacent stars collapse; a pattern built only of stars matches all.
        assert!(ContextSpec::tag_matches("a**c", "abc"));
        assert!(ContextSpec::tag_matches("**", "anything"));
        // A star-free pattern is an exact match.
        assert!(ContextSpec::tag_matches("name", "name"));
        assert!(!ContextSpec::tag_matches("name", "names"));
    }

    #[test]
    fn disjunctions_parse_flat_never_nested() {
        match ContextSpec::parse("a|b|c") {
            ContextSpec::Disjunction(ds) => {
                assert_eq!(ds.len(), 3, "a|b|c must be one 3-way disjunction");
                assert!(
                    ds.iter().all(|d| !matches!(d, ContextSpec::Disjunction(_))),
                    "no nested pairs: {ds:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Programmatic nesting flattens through the normalising constructor.
        let nested = ContextSpec::disjunction(vec![
            ContextSpec::Disjunction(vec![
                ContextSpec::Tag("a".into()),
                ContextSpec::Tag("b".into()),
            ]),
            ContextSpec::Tag("c".into()),
        ]);
        assert_eq!(nested, ContextSpec::parse("a|b|c"));
        // An unrestricted alternative absorbs the disjunction.
        assert_eq!(ContextSpec::parse("a|*|b"), ContextSpec::Any);
        // Duplicates collapse; singletons unwrap.
        assert_eq!(ContextSpec::parse("a|a"), ContextSpec::Tag("a".into()));
        assert_eq!(
            ContextSpec::disjunction(vec![ContextSpec::Path("/a/b".into())]),
            ContextSpec::Path("/a/b".into())
        );
    }

    #[test]
    fn query_display_round_trips() {
        for text in [
            r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#,
            r#"(/country/name, "Romania") AND (/country/year, 2006)"#,
            "(name, (china OR canada) AND NOT mexico)",
            "(a|b|/c/d, x y z)",
        ] {
            let parsed = SedaQuery::parse(text).unwrap();
            let rendered = parsed.to_string();
            assert_eq!(
                SedaQuery::parse(&rendered).unwrap(),
                parsed,
                "display of {text:?} must reparse identically (got {rendered:?})"
            );
        }
    }

    #[test]
    fn nested_parens_in_search_components_parse() {
        let q = SedaQuery::parse("(name, (china OR canada) AND NOT mexico) AND (year, *)").unwrap();
        assert_eq!(q.len(), 2);
        assert!(matches!(q.terms[0].search, FullTextQuery::And(_, _)));
        // A quoted phrase may contain parentheses.
        let q = SedaQuery::parse(r#"(name, "korea (south)")"#).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn labels_are_readable() {
        let q = SedaQuery::parse(r#"(*, "United States") AND (percentage, *)"#).unwrap();
        assert_eq!(q.terms[0].label(), "(*, \"united states\")");
        assert_eq!(q.terms[1].label(), "(percentage, *)");
    }
}
