//! The per-document shard → merge build of `ContextIndex` this crate shipped
//! until the index was built by one fold: `build_shard` made a
//! `HashMap<String, BTreeSet<PathId>>` per document, `merge` folded them —
//! every text token and every tag-name token mapped to its paths — and
//! `paths_matching` / `context_bucket` answered over those sets.  Kept
//! verbatim (as free functions over its own maps, without the posting-list
//! count design nothing built) so the view over the node index is compared
//! against code it shares nothing with.

use std::collections::{BTreeSet, HashMap};

use seda_xmlstore::{Collection, DocId, Document, PathId};

use super::tokenize::terms;
use crate::{FullTextQuery, PathEntry};

#[derive(Default)]
pub struct ContextIndexShard {
    doc: Option<DocId>,
    keyword_paths: HashMap<String, BTreeSet<PathId>>,
    text_paths: BTreeSet<PathId>,
    element_paths: BTreeSet<PathId>,
    path_occurrences: HashMap<PathId, usize>,
}

/// Everything the old index held.
pub struct ExpectedContexts {
    /// keyword → set of paths whose virtual document contains the keyword.
    pub keyword_paths: HashMap<String, BTreeSet<PathId>>,
    /// Path → total occurrence count.
    pub path_occurrences: HashMap<PathId, usize>,
    /// Path → number of documents containing the path.
    pub path_document_frequency: HashMap<PathId, usize>,
    /// All paths in the collection.
    pub all_paths: BTreeSet<PathId>,
    /// Paths whose nodes carry text content.
    pub text_paths: BTreeSet<PathId>,
}

pub fn build(collection: &Collection) -> ExpectedContexts {
    let shards = collection.documents().map(build_shard).collect();
    merge(collection, shards)
}

pub fn build_shard(doc: &Document) -> ContextIndexShard {
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
                shard.keyword_paths.entry(token).or_default().insert(node.path);
            }
        }
    }
    shard
}

pub fn merge(collection: &Collection, mut shards: Vec<ContextIndexShard>) -> ExpectedContexts {
    shards.sort_by_key(|s| s.doc);
    let mut keyword_paths: HashMap<String, BTreeSet<PathId>> = HashMap::new();
    let mut text_paths: BTreeSet<PathId> = BTreeSet::new();
    let mut all_paths: BTreeSet<PathId> = BTreeSet::new();
    let mut path_occurrences: HashMap<PathId, usize> = HashMap::new();
    let mut path_document_frequency: HashMap<PathId, usize> = HashMap::new();

    for shard in shards {
        for (term, paths) in shard.keyword_paths {
            keyword_paths.entry(term).or_default().extend(paths);
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
                keyword_paths.entry(token).or_default().insert(path_id);
            }
        }
        all_paths.insert(path_id);
    }

    ExpectedContexts {
        keyword_paths,
        path_occurrences,
        path_document_frequency,
        all_paths,
        text_paths,
    }
}

impl ExpectedContexts {
    fn paths_for_term(&self, term: &str) -> BTreeSet<PathId> {
        self.keyword_paths.get(term).cloned().unwrap_or_default()
    }

    /// The old `ContextIndex::paths_matching`.
    pub fn paths_matching(&self, query: &FullTextQuery) -> BTreeSet<PathId> {
        match query {
            FullTextQuery::Any => self.text_paths.clone(),
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => {
                if ts.is_empty() {
                    return self.text_paths.clone();
                }
                let mut iter = ts.iter();
                let first = iter.next().expect("invariant: the list was checked non-empty above");
                let mut acc = self.paths_for_term(first);
                for t in iter {
                    let next = self.paths_for_term(t);
                    acc = acc.intersection(&next).copied().collect();
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            FullTextQuery::And(a, b) => {
                let a = self.paths_matching(a);
                let b = self.paths_matching(b);
                a.intersection(&b).copied().collect()
            }
            FullTextQuery::Or(a, b) => {
                let a = self.paths_matching(a);
                let b = self.paths_matching(b);
                a.union(&b).copied().collect()
            }
            FullTextQuery::Not(inner) => {
                let inner = self.paths_matching(inner);
                self.all_paths.difference(&inner).copied().collect()
            }
        }
    }

    /// The old `ContextIndex::context_bucket`.
    pub fn context_bucket(
        &self,
        query: &FullTextQuery,
        allowed: Option<&[PathId]>,
    ) -> Vec<PathEntry> {
        let matching = self.paths_matching(query);
        let paths: BTreeSet<PathId> = match allowed {
            Some(allowed) => {
                allowed.iter().copied().filter(|path| matching.contains(path)).collect()
            }
            None => matching,
        };
        let mut entries: Vec<PathEntry> = paths
            .into_iter()
            .map(|path| PathEntry {
                path,
                frequency: self.path_occurrences.get(&path).copied().unwrap_or(0),
                document_frequency: self.path_document_frequency.get(&path).copied().unwrap_or(0),
            })
            .collect();
        entries.sort_by(|a, b| b.frequency.cmp(&a.frequency).then(a.path.cmp(&b.path)));
        entries
    }
}
