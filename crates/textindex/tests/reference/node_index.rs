//! The map-based `NodeIndex` build this crate shipped until the index became
//! its own read model: per-document shards of three hash maps
//! (`build_shard`), a k-way union of them (`merge`) and a second pass that
//! froze the tables sorted access reads (`rebuild_read_model`,
//! `rebuild_path_runs`).  Kept as plain functions over plain tables — the
//! only code shared with the shipping build is the tokenizer, the
//! dictionary's `from_sorted` and the `ScoredNode` type.  `Posting::positions`
//! is not reproduced: nothing ever read it.

use std::collections::HashMap;

use seda_xmlstore::{Collection, Document, NodeId, PathId};

use crate::{terms, ScoredNode, TermDict};

struct Posting {
    node: NodeId,
    tf: u32,
}

#[derive(Default)]
struct Shard {
    postings: HashMap<String, Vec<Posting>>,
    node_tokens: HashMap<NodeId, Vec<String>>,
    node_paths: HashMap<NodeId, PathId>,
    indexed_nodes: usize,
}

/// Everything the old index held, build artifacts and frozen read model.
pub struct ExpectedTables {
    pub node_tokens: HashMap<NodeId, Vec<String>>,
    pub node_paths: HashMap<NodeId, PathId>,
    pub indexed_nodes: usize,
    /// Document frequency per term (the old `postings[term].len()`).
    pub document_frequency: HashMap<String, usize>,
    pub dict: TermDict,
    pub idf_by_term: Vec<f64>,
    pub posting_offsets: Vec<u32>,
    pub sorted_postings: Vec<ScoredNode>,
    pub posting_paths: Vec<PathId>,
    pub path_run_offsets: Vec<u32>,
    pub path_runs: Vec<ScoredNode>,
    pub slot_nodes: Vec<NodeId>,
    pub slot_paths: Vec<PathId>,
    pub slot_token_counts: Vec<u32>,
}

fn ranked(a: &ScoredNode, b: &ScoredNode) -> std::cmp::Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.node.cmp(&b.node))
}

fn build_shard(doc: &Document) -> Shard {
    let mut shard = Shard::default();
    for (ordinal, node) in doc.iter() {
        let Some(text) = node.text.as_deref() else { continue };
        let tokens = terms(text);
        if tokens.is_empty() {
            continue;
        }
        let node_id = NodeId::new(doc.id, ordinal);
        let mut tfs: HashMap<&str, u32> = HashMap::new();
        for token in &tokens {
            *tfs.entry(token.as_str()).or_insert(0) += 1;
        }
        for (term, tf) in tfs {
            shard.postings.entry(term.to_string()).or_default().push(Posting { node: node_id, tf });
        }
        shard.node_tokens.insert(node_id, tokens);
        shard.node_paths.insert(node_id, node.path);
        shard.indexed_nodes += 1;
    }
    shard
}

/// The old `NodeIndex::build`: one shard per document, merged in document
/// order, then frozen.
pub fn build(collection: &Collection) -> ExpectedTables {
    let mut postings: HashMap<String, Vec<Posting>> = HashMap::new();
    let mut node_tokens: HashMap<NodeId, Vec<String>> = HashMap::new();
    let mut node_paths: HashMap<NodeId, PathId> = HashMap::new();
    let mut indexed_nodes = 0;
    for shard in collection.documents().map(build_shard) {
        for (term, list) in shard.postings {
            postings.entry(term).or_default().extend(list);
        }
        node_tokens.extend(shard.node_tokens);
        node_paths.extend(shard.node_paths);
        indexed_nodes += shard.indexed_nodes;
    }
    for list in postings.values_mut() {
        list.sort_by_key(|p| p.node);
    }

    // rebuild_read_model
    let mut nodes: Vec<(NodeId, u32)> =
        node_tokens.iter().map(|(&node, tokens)| (node, tokens.len() as u32)).collect();
    nodes.sort_unstable_by_key(|&(node, _)| node);
    let slot_nodes: Vec<NodeId> = nodes.iter().map(|&(node, _)| node).collect();
    let slot_token_counts: Vec<u32> = nodes.iter().map(|&(_, len)| len).collect();
    let slot_paths: Vec<PathId> = slot_nodes.iter().map(|node| node_paths[node]).collect();

    let mut lists: Vec<(&str, &[Posting])> =
        postings.iter().map(|(term, list)| (term.as_str(), list.as_slice())).collect();
    lists.sort_unstable_by_key(|&(term, _)| term);
    let dict = TermDict::from_sorted(lists.iter().map(|&(term, _)| term));

    let mut idf_by_term = Vec::new();
    let mut posting_offsets = vec![0u32];
    let mut sorted_postings = Vec::new();
    let mut posting_paths = Vec::new();
    for &(_, list) in &lists {
        let idf = ((1.0 + indexed_nodes as f64) / (1.0 + list.len() as f64)).ln() + 1.0;
        idf_by_term.push(idf);
        let mut run: Vec<(ScoredNode, PathId)> = list
            .iter()
            .map(|posting| {
                let slot = slot_nodes.binary_search(&posting.node).unwrap();
                let len = slot_token_counts[slot].max(1) as f64;
                let score = (posting.tf as f64) * idf / len.sqrt();
                (ScoredNode { node: posting.node, score }, slot_paths[slot])
            })
            .collect();
        run.sort_by(|a, b| ranked(&a.0, &b.0));
        sorted_postings.extend(run.iter().map(|&(scored, _)| scored));
        posting_paths.extend(run.iter().map(|&(_, path)| path));
        posting_offsets.push(sorted_postings.len() as u32);
    }

    // rebuild_path_runs
    let path_slots = slot_paths.iter().map(|path| path.index() + 1).max().unwrap_or(0);
    let mut path_run_offsets = vec![0u32; path_slots + 1];
    for path in &slot_paths {
        path_run_offsets[path.index() + 1] += 1;
    }
    for i in 1..path_run_offsets.len() {
        path_run_offsets[i] += path_run_offsets[i - 1];
    }
    let mut cursors = path_run_offsets.clone();
    let mut path_runs =
        vec![
            ScoredNode { node: NodeId::new(seda_xmlstore::DocId(0), 0), score: 0.0 };
            slot_nodes.len()
        ];
    for (slot, &node) in slot_nodes.iter().enumerate() {
        let cursor = &mut cursors[slot_paths[slot].index()];
        let score = 1.0 / (slot_token_counts[slot] as f64).sqrt().max(1.0);
        path_runs[*cursor as usize] = ScoredNode { node, score };
        *cursor += 1;
    }
    for bounds in path_run_offsets.windows(2) {
        path_runs[bounds[0] as usize..bounds[1] as usize].sort_by(ranked);
    }

    let document_frequency =
        postings.iter().map(|(term, list)| (term.clone(), list.len())).collect();
    ExpectedTables {
        node_tokens,
        node_paths,
        indexed_nodes,
        document_frequency,
        dict,
        idf_by_term,
        posting_offsets,
        sorted_postings,
        posting_paths,
        path_run_offsets,
        path_runs,
        slot_nodes,
        slot_paths,
        slot_token_counts,
    }
}

/// The old random access: `NodeIndex::score` over the `node_tokens` map.
pub fn score(tables: &ExpectedTables, query: &crate::FullTextQuery, node: NodeId) -> Option<f64> {
    let tokens = tables.node_tokens.get(&node)?;
    if !query.matches_tokens(tokens) {
        return None;
    }
    let positive = query.positive_terms();
    if positive.is_empty() {
        return Some(1.0 / (tokens.len() as f64).sqrt().max(1.0));
    }
    let norm = (tokens.len().max(1) as f64).sqrt();
    let total = positive
        .iter()
        .map(|term| {
            let tf = tokens.iter().filter(|t| *t == term).count();
            if tf == 0 {
                0.0
            } else {
                let idf = match tables.dict.get(term) {
                    Some(id) => tables.idf_by_term[id.index()],
                    None => (1.0 + tables.indexed_nodes as f64).ln() + 1.0,
                };
                (tf as f64) * idf / norm
            }
        })
        .sum();
    Some(total)
}
