//! Differential test of sorted access over the four `seda_datagen` corpus
//! shapes: [`NodeIndex::evaluate_into`] answers from its frozen, pre-sorted,
//! path-partitioned tables; the reference asks random access
//! ([`NodeIndex::score`], [`NodeIndex::node_path`]) about every node of the
//! collection and sorts.  Lists must agree on every node and on every score's
//! **bits**.  `crates/textindex/tests/evaluate_differential.rs` is the
//! property test over random corpora and more query shapes; this one brings
//! the real shapes — flat, IDREF-linked, deep regular, heterogeneous — and
//! allowed sets resolved the way a `(tag, *)` term resolves them.

use seda_datagen::Dataset;
use seda_textindex::{FullTextQuery, NodeIndex, ScoredNode};
use seda_xmlstore::{Collection, NodeId, PathId};

/// Every node `query` matches with its random-access score and path, in
/// sorted-access order.
fn reference(
    collection: &Collection,
    index: &NodeIndex,
    query: &FullTextQuery,
) -> Vec<(ScoredNode, PathId)> {
    let mut hits = Vec::new();
    for doc in collection.documents() {
        for (ordinal, _) in doc.iter() {
            let node = NodeId::new(doc.id, ordinal);
            if let Some(score) = index.score(query, node) {
                let path = index.node_path(node).expect("a scored node is an indexed node");
                hits.push((ScoredNode { node, score }, path));
            }
        }
    }
    hits.sort_by(|(x, _), (y, _)| y.score.partial_cmp(&x.score).unwrap().then(x.node.cmp(&y.node)));
    hits
}

fn bits(list: &[ScoredNode]) -> Vec<(NodeId, u64)> {
    list.iter().map(|s| (s.node, s.score.to_bits())).collect()
}

fn kw(words: &[&str]) -> FullTextQuery {
    FullTextQuery::Keywords(words.iter().map(|w| w.to_string()).collect())
}

#[test]
fn evaluate_into_equals_random_access_on_every_datagen_shape() {
    for dataset in Dataset::ALL {
        let collection = dataset.generate_small().unwrap();
        let index = NodeIndex::build(&collection);

        // The two most frequent terms, and two adjacent tokens of a real node.
        let mut by_df: Vec<(usize, &str)> =
            index.term_dict().terms().map(|(_, t)| (index.document_frequency(t), t)).collect();
        by_df.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(y.1)));
        let (a, b) = (by_df[0].1, by_df[1].1);
        let adjacent = index
            .evaluate(&FullTextQuery::Any)
            .iter()
            .filter_map(|hit| index.node_tokens(hit.node))
            .find(|tokens| tokens.len() >= 2)
            .map(|tokens| tokens[..2].iter().map(|token| token.to_string()).collect())
            .expect("some node holds two tokens");
        let queries = [
            FullTextQuery::Any,
            kw(&[a]),
            kw(&[a, b]),
            FullTextQuery::Phrase(adjacent),
            FullTextQuery::Or(Box::new(kw(&[a])), Box::new(kw(&[b]))),
            FullTextQuery::And(
                Box::new(kw(&[a])),
                Box::new(FullTextQuery::Not(Box::new(kw(&[b])))),
            ),
            FullTextQuery::Not(Box::new(kw(&[a]))),
        ];

        // The paths a `(tag, *)` term resolves to, for the leaf tag with the
        // most paths; the path of the median match-all hit (a populous one);
        // a path that holds no text.
        let paths = collection.paths();
        let by_tag = paths
            .iter()
            .filter_map(|(_, path)| path.leaf())
            .map(|leaf| paths.paths_with_leaf(leaf))
            .max_by_key(Vec::len)
            .unwrap();
        let all_hits = index.evaluate(&FullTextQuery::Any);
        let populous = index.node_path(all_hits[all_hits.len() / 2].node).unwrap();
        let textless = paths
            .iter()
            .map(|(id, _)| id)
            .find(|&id| index.evaluate_in_paths(&FullTextQuery::Any, &[id]).is_empty())
            .expect("root elements hold no text");
        let mut shuffled: Vec<PathId> = by_tag.iter().rev().copied().collect();
        shuffled.extend([populous, PathId(u32::MAX), textless, populous]);
        shuffled.extend(by_tag.iter().copied());
        let allowed_sets: [Option<Vec<PathId>>; 6] = [
            None,
            Some(vec![]),
            Some(vec![populous]),
            Some(by_tag),
            Some(shuffled),
            Some(vec![textless]),
        ];

        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        for query in &queries {
            let everything = reference(&collection, &index, query);
            for allowed in &allowed_sets {
                let expected: Vec<ScoredNode> = everything
                    .iter()
                    .filter(|(_, path)| allowed.as_ref().is_none_or(|set| set.contains(path)))
                    .map(|&(hit, _)| hit)
                    .collect();
                index.evaluate_into(query, allowed.as_deref(), &mut candidates, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{}: query {query} within {allowed:?}",
                    dataset.name()
                );
            }
        }
    }
}
