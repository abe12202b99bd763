//! # seda-textindex
//!
//! Full-text indexing for SEDA, replacing the Lucene indexes of the paper's
//! prototype:
//!
//! * [`NodeIndex`] — an inverted index over node content with sorted and
//!   random access, consumed by the Threshold-Algorithm top-k search unit;
//! * [`ContextIndex`] — the keyword → distinct-path index of Figure 8, used to
//!   compute context summaries;
//! * [`FullTextQuery`] — the search-query component of SEDA query terms
//!   (keyword bags, phrases, boolean combinations, `*`).
//!
//! ```
//! use seda_textindex::{FullTextQuery, NodeIndex};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("a.xml", "<country><name>United States</name></country>"),
//! ]).unwrap();
//! let index = NodeIndex::build(&collection);
//! let hits = index.evaluate(&FullTextQuery::phrase("United States"));
//! assert_eq!(hits.len(), 1);
//! ```

pub mod audit;
pub mod context_index;
pub mod dict;
pub mod node_index;
pub mod query;
pub mod tokenize;

pub use context_index::{ContextIndex, CountStorage, PathEntry};
pub use dict::{TermDict, TermId};
pub use node_index::{NodeIndex, NodeIndexShard, ReadModelBytes, ScoredNode};
pub use query::{FullTextQuery, QueryParseError};
pub use tokenize::terms;

/// The builders both indexes had before they kept one representation and
/// one build path, and the suites that hold the new builders to them.  The
/// files live under `tests/` because they are test-only; they are compiled
/// here because the context-index reference fills crate-private fields.
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::query::FullTextQuery;
    use crate::tokenize::terms;

    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-z]{1,8}", 0..12).prop_map(|words| words.join(" "))
    }

    proptest! {
        /// Tokenisation is idempotent: tokenising already-normalised tokens
        /// yields the same tokens.
        #[test]
        fn tokenising_is_idempotent(text in arb_text()) {
            let once = terms(&text);
            let twice = terms(&once.join(" "));
            prop_assert_eq!(once, twice);
        }

        /// A phrase query built from a text always matches that text.
        #[test]
        fn phrase_matches_its_own_source(text in arb_text()) {
            let q = FullTextQuery::phrase(&text);
            prop_assert!(q.matches_text(&text));
        }

        /// Keyword matching is order-insensitive: a keyword bag built from a
        /// text matches any permutation of the text.
        #[test]
        fn keywords_are_order_insensitive(mut words in proptest::collection::vec("[a-z]{1,8}", 1..8)) {
            let q = FullTextQuery::keywords(&words.join(" "));
            words.reverse();
            prop_assert!(q.matches_text(&words.join(" ")));
        }

        /// And/Or obey their boolean semantics with respect to the component
        /// queries on arbitrary text.
        #[test]
        fn boolean_semantics(text in arb_text(), a in "[a-z]{1,6}", b in "[a-z]{1,6}") {
            let qa = FullTextQuery::keywords(&a);
            let qb = FullTextQuery::keywords(&b);
            let and = FullTextQuery::And(Box::new(qa.clone()), Box::new(qb.clone()));
            let or = FullTextQuery::Or(Box::new(qa.clone()), Box::new(qb.clone()));
            let not = FullTextQuery::Not(Box::new(qa.clone()));
            let ma = qa.matches_text(&text);
            let mb = qb.matches_text(&text);
            prop_assert_eq!(and.matches_text(&text), ma && mb);
            prop_assert_eq!(or.matches_text(&text), ma || mb);
            prop_assert_eq!(not.matches_text(&text), !ma);
        }

        /// The query parser round-trips simple keyword queries.
        #[test]
        fn parser_accepts_keyword_bags(words in proptest::collection::vec("[a-z]{1,8}", 1..5)) {
            let input = words.join(" ");
            let parsed = FullTextQuery::parse(&input).unwrap();
            prop_assert_eq!(parsed, FullTextQuery::Keywords(words));
        }
    }
}
