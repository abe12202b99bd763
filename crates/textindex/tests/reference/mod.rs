//! Differential suites for the two index builds against the builders they
//! replaced, and for the tokenizer against the one it replaced:
//!
//! * [`node_index`] — the map-based `NodeIndex` build (per-document maps,
//!   a union, a second pass freezing the read model), as a plain function
//!   returning the expected tables;
//! * [`context_index`] — `ContextIndex::build_shard` + `merge` and the old
//!   answers over their maps, verbatim;
//! * [`tokenize`] — the char-by-char `terms`, which both reference builds
//!   tokenise with, so a tokenizer fault shows as a difference instead of
//!   being shared by judge and judged.
//!
//! Every table and every answer of the new node index must equal the old
//! one's, scores to the bit — the tables the new index no longer stores
//! (scores, per-posting paths, idf) as materialised from its slots; the context index, now a view of the node
//! index, must give the old answers — every keyword's path set, the text
//! paths, both counts of every path and every context bucket.  Both run on
//! the four `seda_datagen` shapes and on random small corpora built to hold
//! what a flat build gets wrong: a token repeated in one node, empty and
//! punctuation-only text, one token on many paths, a document with no text
//! at all.
//!
//! This directory is compiled into the crate's unit tests (`lib.rs` names it
//! with `#[path]`), not as an integration test: the comparisons read the
//! indexes' crate-private tables.

pub mod context_index;
pub mod node_index;
pub mod tokenize;

use proptest::prelude::*;
use seda_datagen::Dataset;
use seda_xmlstore::{Collection, NodeId, PathId};

use crate::tokenize::for_each_term;
use crate::{ContextIndex, CountStorage, FullTextQuery, NodeIndex, ScoredNode};
use context_index::ExpectedContexts;
use node_index::ExpectedTables;

fn bits(list: &[ScoredNode]) -> Vec<(NodeId, u64)> {
    list.iter().map(|s| (s.node, s.score.to_bits())).collect()
}

fn kw(words: &[&str]) -> FullTextQuery {
    FullTextQuery::Keywords(words.iter().map(|w| w.to_string()).collect())
}

fn not(query: FullTextQuery) -> FullTextQuery {
    FullTextQuery::Not(Box::new(query))
}

/// The query shapes of `tests/evaluate_differential.rs` over the terms `a`
/// and `b` and a phrase.
fn query_shapes(a: &str, b: &str, phrase: Vec<String>) -> Vec<FullTextQuery> {
    vec![
        FullTextQuery::Any,
        kw(&[a]),
        kw(&[a, b]),
        kw(&[a, "zzz-no-such-term"]),
        FullTextQuery::Phrase(phrase),
        FullTextQuery::Or(Box::new(kw(&[a])), Box::new(kw(&[b]))),
        FullTextQuery::And(Box::new(kw(&[a])), Box::new(not(kw(&[b])))),
        not(kw(&[a])),
    ]
}

/// Every table the old build held against what the new index answers.
fn assert_same_tables(collection: &Collection, index: &NodeIndex, expected: &ExpectedTables) {
    // Dictionary, idf and document frequency.
    let terms: Vec<&str> = index.term_dict().terms().map(|(_, term)| term).collect();
    let expected_terms: Vec<&str> = expected.dict.terms().map(|(_, term)| term).collect();
    assert_eq!(terms, expected_terms);
    assert_eq!(index.term_dict().len(), expected.document_frequency.len());
    assert_eq!(index.indexed_node_count(), expected.indexed_nodes);
    for (id, term) in expected.dict.terms() {
        assert_eq!(index.term_dict().get(term), Some(id));
        let idf = index.idf(id);
        assert_eq!(idf.to_bits(), expected.idf_by_term[id.index()].to_bits(), "{term}");
        assert_eq!(index.document_frequency(term), expected.document_frequency[term], "{term}");
        // Sorted access: the term's slice of the old arena and of its
        // parallel path array — node, score bits and path — against the
        // postings materialised from their slots.
        let range = expected.posting_offsets[id.index()] as usize
            ..expected.posting_offsets[id.index() + 1] as usize;
        let materialised: Vec<(NodeId, u64, PathId)> = index.postings.slots[index.term_range(id)]
            .iter()
            .zip(index.sorted_access_by_id(id))
            .map(|(&slot, scored)| {
                (scored.node, scored.score.to_bits(), index.slot_paths[slot as usize])
            })
            .collect();
        let old: Vec<(NodeId, u64, PathId)> = expected.sorted_postings[range.clone()]
            .iter()
            .zip(&expected.posting_paths[range.clone()])
            .map(|(scored, &path)| (scored.node, scored.score.to_bits(), path))
            .collect();
        assert_eq!(materialised, old, "{term}");
        // The term → paths table: the distinct paths of the term's postings.
        let mut paths = expected.posting_paths[range].to_vec();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(index.term_paths_of(term), paths, "{term}");
    }
    let unknown = "zzz-no-such-term";
    assert_eq!(index.document_frequency(unknown), 0);
    assert!(index.term_paths_of(unknown).is_empty());

    // The tables the old build froze, where the new index still has them,
    // and the match-all runs materialised from their slots.
    assert_eq!(index.postings.offsets, expected.posting_offsets);
    assert_eq!(index.path_runs.offsets, expected.path_run_offsets);
    assert_eq!(index.path_runs.slots.len(), expected.path_runs.len());
    for path in 0..expected.path_run_offsets.len() - 1 {
        let range = index.path_runs.range(path);
        let run: Vec<ScoredNode> =
            index.evaluate_in_paths(&FullTextQuery::Any, &[PathId(path as u32)]);
        assert_eq!(bits(&run), bits(&expected.path_runs[range]), "run of path {path}");
    }
    assert_eq!(index.slot_nodes, expected.slot_nodes);
    assert_eq!(index.slot_paths, expected.slot_paths);
    let token_counts: Vec<u32> = index.token_offsets.windows(2).map(|b| b[1] - b[0]).collect();
    assert_eq!(token_counts, expected.slot_token_counts);

    // Side table, paths and tokens of every node of the collection.
    for doc in collection.documents() {
        for (ordinal, _) in doc.iter() {
            let node = NodeId::new(doc.id, ordinal);
            let path = expected.node_paths.get(&node).copied();
            let tokens = expected.node_tokens.get(&node);
            assert_eq!(index.node_path(node), path);
            assert_eq!(
                index.node_tokens(node),
                tokens.map(|tokens| tokens.iter().map(String::as_str).collect::<Vec<_>>())
            );
        }
    }
}

/// `score`, `evaluate` and `evaluate_in_paths` against the old random
/// access over the old tables, asked about every node of the collection.
fn assert_same_answers(
    collection: &Collection,
    index: &NodeIndex,
    expected: &ExpectedTables,
    queries: &[FullTextQuery],
    allowed_sets: &[Vec<PathId>],
) {
    for query in queries {
        let mut everything: Vec<(ScoredNode, PathId)> = Vec::new();
        for doc in collection.documents() {
            for (ordinal, _) in doc.iter() {
                let node = NodeId::new(doc.id, ordinal);
                let score = node_index::score(expected, query, node);
                assert_eq!(index.score(query, node).map(f64::to_bits), score.map(f64::to_bits));
                if let Some(score) = score {
                    everything.push((ScoredNode { node, score }, expected.node_paths[&node]));
                }
            }
        }
        everything.sort_by(|(x, _), (y, _)| {
            y.score.partial_cmp(&x.score).unwrap().then(x.node.cmp(&y.node))
        });
        let all: Vec<ScoredNode> = everything.iter().map(|&(hit, _)| hit).collect();
        assert_eq!(bits(&index.evaluate(query)), bits(&all), "{query}");
        for allowed in allowed_sets {
            let within: Vec<ScoredNode> = everything
                .iter()
                .filter(|(_, path)| allowed.contains(path))
                .map(|&(hit, _)| hit)
                .collect();
            assert_eq!(
                bits(&index.evaluate_in_paths(query, allowed)),
                bits(&within),
                "{query} within {allowed:?}"
            );
        }
    }
}

/// The context index read through `index` against the old one's maps:
/// every keyword's path set, the text paths, both counts of every path, and
/// the bucket of every query within every allowed set.
fn assert_same_context_index(
    collection: &Collection,
    index: &NodeIndex,
    queries: &[FullTextQuery],
    allowed_sets: &[Vec<PathId>],
) {
    let built = ContextIndex::build(collection, CountStorage::DocumentStore);
    assert_eq!(built.verify(), Ok(()));
    let expected: ExpectedContexts = context_index::build(collection);
    for (term, paths) in &expected.keyword_paths {
        let found = built.paths_matching(index, &kw(&[term]));
        assert_eq!(found, paths.iter().copied().collect::<Vec<_>>(), "{term}");
    }
    assert!(built.paths_matching(index, &kw(&["zzz-no-such-term"])).is_empty());
    let text: Vec<PathId> = expected.text_paths.iter().copied().collect();
    assert_eq!(built.paths_matching(index, &FullTextQuery::Any), text);
    assert_eq!(built.counts.occurrences.len(), collection.paths().len());
    assert_eq!(built.counts.documents.len(), collection.paths().len());
    for (path, _) in collection.paths().iter() {
        let count = |counts: &std::collections::HashMap<PathId, usize>| {
            counts.get(&path).copied().unwrap_or(0)
        };
        assert_eq!(built.counts.occurrences[path.index()], count(&expected.path_occurrences));
        assert_eq!(built.counts.documents[path.index()], count(&expected.path_document_frequency));
    }
    for query in queries {
        assert_eq!(
            built.context_bucket(index, query, None),
            expected.context_bucket(query, None),
            "{query}"
        );
        for allowed in allowed_sets {
            assert_eq!(
                built.context_bucket(index, query, Some(allowed)),
                expected.context_bucket(query, Some(allowed)),
                "{query} within {allowed:?}"
            );
        }
    }
}

/// Query shapes over tag-name keywords: a label alone, a label with a text
/// keyword, a label or a text keyword, and a negated label.
fn label_shapes(label: &str, text: &str) -> Vec<FullTextQuery> {
    vec![
        kw(&[label]),
        kw(&[label, text]),
        FullTextQuery::Or(Box::new(kw(&[label])), Box::new(kw(&[text]))),
        not(kw(&[label])),
    ]
}

#[test]
fn both_builds_equal_the_old_builders_on_every_datagen_shape() {
    for dataset in Dataset::ALL {
        let collection = dataset.generate_small().unwrap();
        let index = NodeIndex::build(&collection);
        let expected = node_index::build(&collection);
        assert_same_tables(&collection, &index, &expected);
        assert_eq!(index.verify(), Ok(()), "{}", dataset.name());

        // The two most frequent terms, two adjacent tokens of a real node;
        // the paths of the leaf tag with the most paths, a populous path, a
        // path without text.
        let mut by_df: Vec<(usize, &str)> =
            expected.document_frequency.iter().map(|(term, &df)| (df, term.as_str())).collect();
        by_df.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(y.1)));
        let adjacent = expected
            .slot_nodes
            .iter()
            .map(|node| &expected.node_tokens[node])
            .find(|tokens| tokens.len() >= 2)
            .map(|tokens| tokens[..2].to_vec())
            .expect("some node holds two tokens");
        let queries = query_shapes(by_df[0].1, by_df[1].1, adjacent);
        let paths = collection.paths();
        let leaf = paths
            .iter()
            .filter_map(|(_, path)| path.leaf())
            .max_by_key(|&leaf| paths.paths_with_leaf(leaf).len())
            .unwrap();
        let by_tag = paths.paths_with_leaf(leaf);
        let populous = expected.slot_paths[expected.slot_paths.len() / 2];
        let textless = paths
            .iter()
            .map(|(id, _)| id)
            .find(|id| !expected.slot_paths.contains(id))
            .expect("root elements hold no text");
        let mut shuffled: Vec<PathId> = by_tag.iter().rev().copied().collect();
        shuffled.extend([populous, PathId(u32::MAX), textless, populous]);
        let allowed = [vec![], vec![populous], by_tag, shuffled, vec![textless]];
        assert_same_answers(&collection, &index, &expected, &queries, &allowed);

        let label = tokenize::terms(collection.symbols().resolve(leaf)).remove(0);
        let mut context_queries = queries;
        context_queries.extend(label_shapes(&label, by_df[0].1));
        assert_same_context_index(&collection, &index, &context_queries, &allowed);
    }
}

const TAGS: [&str; 4] = ["name", "note", "item", "year"];
/// Texts a flat build must get right: repeats inside one node, no token at
/// all (empty, punctuation only), mixed case and decimals, a token every
/// path shares.
const TEXTS: [&str; 10] = [
    "alpha",
    "alpha alpha alpha",
    "beta alpha beta",
    "",
    "--- %% !!",
    "Alpha, beta. 16.9",
    "gamma delta alpha",
    "united states",
    "states united states united",
    "delta",
];

/// A random collection: per document a root of one of three names and up to
/// five children drawn from `TAGS` × `TEXTS`, some nested one level deeper
/// (so one tag and one token sit on several paths), some documents with
/// element-only children — no text anywhere.
fn random_collection(docs: &[(u8, Vec<(u8, u8)>)]) -> Collection {
    let mut collection = Collection::new();
    for (i, (shape, children)) in docs.iter().enumerate() {
        collection
            .add_document(format!("d{i}.xml"), |b| {
                b.start_element(["doc", "item", "entry"][*shape as usize % 3])?;
                for &(tag, text) in children {
                    let name = TAGS[tag as usize % TAGS.len()];
                    let text = TEXTS[text as usize % TEXTS.len()];
                    match (shape / 3) % 3 {
                        0 => {
                            b.leaf(name, text)?;
                        }
                        1 => {
                            b.start_element(name)?;
                            b.leaf("inner", text)?;
                            b.end_element()?;
                        }
                        _ => {
                            // No text at all under this root.
                            b.start_element(name)?;
                            b.end_element()?;
                        }
                    }
                }
                b.end_element()?;
                Ok(())
            })
            .unwrap();
    }
    collection
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn both_builds_equal_the_old_builders_on_random_corpora(
        docs in proptest::collection::vec(
            (0u8..9, proptest::collection::vec((0u8..4, 0u8..10), 0..6)),
            1..14,
        ),
        picks in proptest::collection::vec(0usize..64, 3..6),
    ) {
        let collection = random_collection(&docs);
        let index = NodeIndex::build(&collection);
        let expected = node_index::build(&collection);
        assert_same_tables(&collection, &index, &expected);
        prop_assert_eq!(index.verify(), Ok(()));

        let all: Vec<PathId> = collection.paths().iter().map(|(id, _)| id).collect();
        let pick = |i: usize| all[picks[i] % all.len()];
        let allowed = [
            vec![],
            vec![pick(0)],
            all.clone(),
            vec![pick(1), PathId(u32::MAX), pick(0), pick(2), pick(1)],
        ];
        let phrase = vec!["united".to_string(), "states".to_string()];
        let mut queries = query_shapes("alpha", "beta", phrase);
        assert_same_answers(&collection, &index, &expected, &queries, &allowed);

        queries.extend(label_shapes("item", "alpha"));
        queries.extend(label_shapes("inner", "states"));
        assert_same_context_index(&collection, &index, &queries, &allowed);
    }
}

/// The visitor's tokens, collected.
fn visited(text: &str, buf: &mut String) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_term(text, buf, |token| tokens.push(token.to_string()));
    tokens
}

#[test]
fn the_visitor_equals_the_reference_tokenizer_on_its_edge_cases() {
    let mut buf = String::new();
    for text in [
        "16.9.5",
        "15.",
        "İstanbul",
        "Côte d'Ivoire",
        "北京",
        "12.31T",
        ".5 5. 5.a 1..2 a1.2 1.2.3.4 ١٢.3 0.0",
        "İİ Σ ΣΑΣ ß ǅ Ⅻ ½ x\u{0301}y",
        "",
        "--- %% !!",
        "Alpha, beta. 16.9",
    ] {
        assert_eq!(visited(text, &mut buf), tokenize::terms(text), "{text:?}");
        assert_eq!(crate::terms(text), tokenize::terms(text), "{text:?}");
    }
    assert_eq!(visited("16.9.5 15. 12.31T", &mut buf), ["16.9", "5", "15", "12.31t"]);
}

/// A random character: mostly ASCII letters, digits, `.` and separators,
/// then Latin-1 and Greek letters with case, then any scalar value.
fn random_char(pick: u32) -> char {
    const ASCII: &[u8] = b"aZ09.. ,-_'\t\nQz5";
    const UNICODE: [char; 12] = ['İ', 'ı', 'Ô', 'ç', 'ß', 'Σ', 'ς', '北', '١', '½', '\u{301}', 'ǅ'];
    match pick % 4 {
        0 | 1 => ASCII[(pick / 4) as usize % ASCII.len()] as char,
        2 => UNICODE[(pick / 4) as usize % UNICODE.len()],
        _ => char::from_u32((pick / 4) % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_visitor_equals_the_reference_tokenizer_on_random_text(
        picks in proptest::collection::vec(any::<u32>(), 0..48),
        ascii in "[a-zA-Z0-9 .,;:_'-]{0,40}",
    ) {
        let unicode: String = picks.iter().map(|&pick| random_char(pick)).collect();
        // One buffer across calls, as the builds keep it.
        let mut buf = String::from("stale");
        for text in [unicode.as_str(), ascii.as_str()] {
            prop_assert_eq!(visited(text, &mut buf), tokenize::terms(text));
        }
    }
}
