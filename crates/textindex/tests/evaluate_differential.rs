//! Differential test of [`NodeIndex::evaluate_into`] against random access.
//!
//! Sorted access answers from tables frozen at build time — the score-sorted
//! posting arena, its parallel path array and the path-partitioned match-all
//! runs.  The reference here uses none of them: it asks [`NodeIndex::score`]
//! and [`NodeIndex::node_path`] about **every node of the collection** and
//! sorts what matched by (score desc, node asc).  The two must agree element
//! for element, on the node and on the score's **bits**, for every query
//! shape × every kind of allowed-path slice a caller can pass.
//!
//! One query shape is left out on purpose: a disjunction with a negated
//! branch (`a OR NOT b`) matches nodes that hold none of its positive terms,
//! and sorted access draws candidates from positive postings only (see
//! `evaluate_into`).  Every shape below is either free of positive terms or
//! satisfied only by nodes that hold one.

use proptest::prelude::*;
use seda_textindex::{FullTextQuery, NodeIndex, ScoredNode};
use seda_xmlstore::{Collection, NodeId, PathId};

const VOCAB: [&str; 5] = ["alpha", "beta", "gamma", "delta", "united"];
const TAGS: [&str; 4] = ["name", "note", "item", "year"];

/// A random collection over a tiny vocabulary: documents of two root shapes
/// whose children hold 1–4 words (repeats included, so term frequencies and
/// lengths vary), some nested one level deeper, some with no text at all.
fn random_collection(cells: &[(u8, Vec<u8>)]) -> Collection {
    let mut c = Collection::new();
    for (i, chunk) in cells.chunks(4).enumerate() {
        c.add_document(format!("d{i}.xml"), |b| {
            b.start_element(if i % 3 == 0 { "item" } else { "doc" })?;
            for (shape, words) in chunk {
                let tag = TAGS[*shape as usize % TAGS.len()];
                let text: Vec<&str> =
                    words.iter().map(|&w| VOCAB[w as usize % VOCAB.len()]).collect();
                if shape / 4 == 0 && words.len() == 1 {
                    // An element-only child: its path exists but holds no text.
                    b.start_element(tag)?;
                    b.leaf("inner", &text.join(" "))?;
                    b.end_element()?;
                } else {
                    b.leaf(tag, &text.join(" "))?;
                }
            }
            b.end_element()?;
            Ok(())
        })
        .unwrap();
    }
    c
}

fn kw(words: &[&str]) -> FullTextQuery {
    FullTextQuery::Keywords(words.iter().map(|w| w.to_string()).collect())
}

fn phrase(words: &[&str]) -> FullTextQuery {
    FullTextQuery::Phrase(words.iter().map(|w| w.to_string()).collect())
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

/// Every query shape of Definition 3 over the words `a` and `b`, plus a term
/// no node holds.
fn query_shapes(a: &str, b: &str) -> Vec<FullTextQuery> {
    vec![
        FullTextQuery::Any,
        kw(&[]),
        phrase(&[]),
        kw(&[a]),
        phrase(&[b]),
        kw(&["zzz"]),
        kw(&[a, b]),
        kw(&[a, "zzz"]),
        phrase(&[a, b]),
        phrase(&[a, a]),
        and(kw(&[a]), phrase(&[b])),
        or(kw(&[a]), kw(&[b])),
        or(kw(&[a]), kw(&["zzz"])),
        and(kw(&[a]), not(kw(&[b]))),
        and(or(kw(&[a]), not(kw(&[b]))), kw(&[b, b])),
        not(kw(&[a])),
        and(not(kw(&[a])), not(phrase(&[b, a]))),
        and(FullTextQuery::Any, FullTextQuery::Any),
    ]
}

/// The answer assembled through random access alone.
fn reference(
    collection: &Collection,
    index: &NodeIndex,
    query: &FullTextQuery,
    allowed: Option<&[PathId]>,
) -> Vec<ScoredNode> {
    let mut hits = Vec::new();
    for doc in collection.documents() {
        for (ordinal, _) in doc.iter() {
            let node = NodeId::new(doc.id, ordinal);
            let Some(score) = index.score(query, node) else { continue };
            let path = index.node_path(node).expect("a scored node is an indexed node");
            if allowed.is_none_or(|paths| paths.contains(&path)) {
                hits.push(ScoredNode { node, score });
            }
        }
    }
    hits.sort_by(|x, y| y.score.partial_cmp(&x.score).unwrap().then(x.node.cmp(&y.node)));
    hits
}

fn bits(list: &[ScoredNode]) -> Vec<(NodeId, u64)> {
    list.iter().map(|s| (s.node, s.score.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evaluate_into_equals_random_access_over_every_node(
        cells in proptest::collection::vec(
            (0u8..8, proptest::collection::vec(0u8..5, 1..5)),
            1..40,
        ),
        picks in proptest::collection::vec(0usize..64, 2..6),
        a in 0usize..5,
        b in 0usize..5,
    ) {
        let collection = random_collection(&cells);
        let index = NodeIndex::build(&collection);
        let all: Vec<PathId> = collection.paths().iter().map(|(id, _)| id).collect();
        let pick = |i: usize| all[picks[i % picks.len()] % all.len()];
        // The root element's path: in the table, never holding text.
        let textless = all[0];
        prop_assert!(index.evaluate_in_paths(&FullTextQuery::Any, &[textless]).is_empty());
        let beyond = PathId(all.len() as u32 + 3);
        let allowed_sets: Vec<Option<Vec<PathId>>> = vec![
            None,
            Some(vec![]),
            Some(vec![pick(0)]),
            Some(all.clone()),
            Some(vec![pick(1), pick(0), pick(2), pick(1), pick(0)]),
            Some(vec![textless]),
            Some(vec![PathId(u32::MAX), pick(3), beyond, textless, pick(3)]),
        ];

        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        for query in query_shapes(VOCAB[a], VOCAB[b]) {
            for allowed in &allowed_sets {
                index.evaluate_into(&query, allowed.as_deref(), &mut candidates, &mut out);
                let expected = reference(&collection, &index, &query, allowed.as_deref());
                prop_assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "query {} within {:?}",
                    query,
                    allowed
                );
            }
        }
    }
}
