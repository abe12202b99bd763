//! The per-document shard → merge build of `ContextIndex` this crate shipped
//! until the index was built by one fold: `build_shard` made a
//! `HashMap<String, BTreeSet<PathId>>` per document, `merge` folded them.
//! Kept verbatim (as free functions) so the fold is compared against code it
//! shares nothing with.  It fills the real `ContextIndex`
//! fields, which is why this module is compiled into the crate's unit tests
//! rather than an integration test.

use std::collections::{BTreeSet, HashMap};

use seda_xmlstore::{Collection, DocId, Document, PathId};

use super::tokenize::terms;
use crate::{ContextIndex, CountStorage};

#[derive(Default)]
pub struct ContextIndexShard {
    doc: Option<DocId>,
    keyword_paths: HashMap<String, BTreeSet<PathId>>,
    posting_counts: HashMap<(String, PathId), usize>,
    text_paths: BTreeSet<PathId>,
    element_paths: BTreeSet<PathId>,
    path_occurrences: HashMap<PathId, usize>,
}

pub fn build(collection: &Collection, storage: CountStorage) -> ContextIndex {
    let shards = collection.documents().map(|doc| build_shard(doc, storage)).collect();
    merge(collection, storage, shards)
}

pub fn build_shard(doc: &Document, storage: CountStorage) -> ContextIndexShard {
    let mut shard = ContextIndexShard { doc: Some(doc.id), ..ContextIndexShard::default() };
    for (_, node) in doc.iter() {
        shard.element_paths.insert(node.path);
        *shard.path_occurrences.entry(node.path).or_insert(0) += 1;
        // Content keywords.
        if let Some(text) = node.text.as_deref() {
            let tokens = terms(text);
            if !tokens.is_empty() {
                shard.text_paths.insert(node.path);
            }
            for token in tokens {
                shard.keyword_paths.entry(token.clone()).or_default().insert(node.path);
                if storage == CountStorage::PostingLists {
                    *shard.posting_counts.entry((token, node.path)).or_insert(0) += 1;
                }
            }
        }
    }
    shard
}

pub fn merge(
    collection: &Collection,
    storage: CountStorage,
    mut shards: Vec<ContextIndexShard>,
) -> ContextIndex {
    shards.sort_by_key(|s| s.doc);
    let mut keyword_paths: HashMap<String, BTreeSet<PathId>> = HashMap::new();
    let mut posting_counts: HashMap<(String, PathId), usize> = HashMap::new();
    let mut text_paths: BTreeSet<PathId> = BTreeSet::new();
    let mut all_paths: BTreeSet<PathId> = BTreeSet::new();
    let mut path_occurrences: HashMap<PathId, usize> = HashMap::new();
    let mut path_document_frequency: HashMap<PathId, usize> = HashMap::new();

    for shard in shards {
        for (term, paths) in shard.keyword_paths {
            keyword_paths.entry(term).or_default().extend(paths);
        }
        if storage == CountStorage::PostingLists {
            for (key, count) in shard.posting_counts {
                *posting_counts.entry(key).or_insert(0) += count;
            }
        }
        text_paths.extend(shard.text_paths.iter().copied());
        all_paths.extend(shard.element_paths.iter().copied());
        for (&path, &count) in &shard.path_occurrences {
            *path_occurrences.entry(path).or_insert(0) += count;
        }
        for &path in &shard.element_paths {
            *path_document_frequency.entry(path).or_insert(0) += 1;
        }
    }

    // Tag-name keywords: every label on a path contributes the path to the
    // label's posting list.  The path table is shared by all documents, so
    // this pass is global rather than per shard.
    for (path_id, label_path) in collection.paths().iter() {
        for &step in label_path.steps() {
            for token in terms(collection.symbols().resolve(step)) {
                keyword_paths.entry(token.clone()).or_default().insert(path_id);
                if storage == CountStorage::PostingLists {
                    *posting_counts.entry((token, path_id)).or_insert(0) += 1;
                }
            }
        }
        all_paths.insert(path_id);
    }

    ContextIndex {
        storage,
        keyword_paths,
        posting_counts,
        path_occurrences,
        path_document_frequency,
        all_paths,
        text_paths,
    }
}
