//! # seda-topk
//!
//! The top-k search unit of SEDA (Sec. 4): a Threshold-Algorithm/rank-join
//! search over the full-text node index that scores candidate result tuples by
//! content relevance *and* structural compactness of the connecting subgraph,
//! with early termination.  A naive exhaustive baseline is included for
//! validation and benchmarking.
//!
//! ```
//! use seda_datagraph::{DataGraph, GraphConfig};
//! use seda_textindex::{FullTextQuery, NodeIndex};
//! use seda_topk::{SearchLimits, SearchScratch, TermInput, TopKSearcher};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("us.xml", "<country><name>United States</name><year>2006</year></country>"),
//! ]).unwrap();
//! let index = NodeIndex::build(&collection);
//! let graph = DataGraph::build(&collection, &GraphConfig::default());
//! let searcher = TopKSearcher::new(&index, &graph);
//! // The one search entry point: ungoverned is unlimited limits, a one-off
//! // search is a fresh scratch.
//! let (result, breach) = searcher.search(
//!     &[TermInput::new(FullTextQuery::phrase("United States"))],
//!     3,
//!     &SearchLimits::unlimited(),
//!     &mut SearchScratch::new(),
//! );
//! assert!(breach.is_none());
//! assert_eq!(result.tuples.len(), 1);
//! ```

mod audit;
mod partition;
mod searcher;
mod types;

pub use searcher::{SearchScratch, TopKSearcher};
pub use types::{
    LimitBreach, MaterializedTerms, ResultTuple, SearchLimits, SearchStats, TermInput, TopKResult,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{SearchLimits, SearchScratch, TermInput, TopKResult, TopKSearcher};
    use seda_datagraph::{DataGraph, GraphConfig};
    use seda_textindex::{FullTextQuery, NodeIndex};
    use seda_xmlstore::Collection;

    fn search(searcher: &TopKSearcher<'_>, terms: &[TermInput], k: usize) -> TopKResult {
        let mut scratch = SearchScratch::new();
        let limits = SearchLimits::unlimited();
        searcher.search(terms, k, &limits, &mut scratch).0
    }

    /// A small random two-level collection of `docs` documents, each with a
    /// few leaves drawn from a tiny vocabulary.
    fn random_collection(words: &[u8]) -> Collection {
        let mut c = Collection::new();
        let vocab = ["alpha", "beta", "gamma", "delta"];
        for (i, chunk) in words.chunks(3).enumerate() {
            c.add_document(format!("d{i}.xml"), |b| {
                b.start_element("doc")?;
                for (j, &w) in chunk.iter().enumerate() {
                    b.leaf(&format!("field{j}"), vocab[w as usize % vocab.len()])?;
                }
                b.end_element()?;
                Ok(())
            })
            .unwrap();
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The Threshold Algorithm returns exactly the same top-k scores as
        /// the exhaustive baseline on arbitrary small collections.
        #[test]
        fn ta_agrees_with_naive(words in proptest::collection::vec(0u8..4, 3..18), k in 1usize..6) {
            let c = random_collection(&words);
            let index = NodeIndex::build(&c);
            let graph = DataGraph::build(&c, &GraphConfig::default());
            let searcher = TopKSearcher::new(&index, &graph);
            let terms = vec![
                TermInput::new(FullTextQuery::keywords("alpha")),
                TermInput::new(FullTextQuery::Any),
            ];
            let ta = search(&searcher, &terms, k);
            let naive = searcher.search_naive(&terms, k, &mut SearchScratch::new());
            prop_assert_eq!(ta.tuples.len(), naive.tuples.len());
            for (a, b) in ta.tuples.iter().zip(naive.tuples.iter()) {
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
        }

        /// Results are sorted by non-increasing score and contain at most k
        /// tuples, each with one node per term and positive compactness.
        #[test]
        fn result_invariants(words in proptest::collection::vec(0u8..4, 3..18), k in 1usize..6) {
            let c = random_collection(&words);
            let index = NodeIndex::build(&c);
            let graph = DataGraph::build(&c, &GraphConfig::default());
            let searcher = TopKSearcher::new(&index, &graph);
            let terms = vec![
                TermInput::new(FullTextQuery::keywords("beta")),
                TermInput::new(FullTextQuery::Any),
            ];
            let result = search(&searcher, &terms, k);
            prop_assert!(result.tuples.len() <= k);
            for w in result.tuples.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            for t in &result.tuples {
                prop_assert_eq!(t.nodes.len(), 2);
                prop_assert!(t.compactness > 0.0);
            }
        }
    }
}
