//! The keyword → distinct-path "context" index of Figure 8.
//!
//! The paper maintains "a full-text index which maps individual keywords to
//! the set of distinct paths in which they appear", treating each distinct
//! root-to-leaf path as a virtual document whose content is (a) the text of
//! every node with that context and (b) the tag names on the path itself.
//! SEDA uses this index to compute the *context bucket* of every query term —
//! all distinct paths the term appears in across the entire collection —
//! together with the absolute frequency of each path (not the frequency of the
//! keyword within the path; Sec. 5 explains that choice).
//!
//! The paper discusses two designs for the per-path counts: storing them in
//! the document store (one count per path) or duplicating them into every
//! posting list.  Both are implemented here behind [`CountStorage`] so the
//! trade-off can be measured.
//!
//! # Build
//!
//! [`ContextIndex::build`] is the only constructor: **one fold** over the
//! collection's nodes straight into the final maps — per-path occurrence and
//! document counts through plain arrays indexed by [`PathId`] (a
//! last-document stamp per path instead of a set per document), a keyword's
//! path set found by reference and no `String` cloned — then one pass
//! over the shared path table for the tag-name keywords.
//!
//! There is no per-document shard → merge lifecycle; no substrate of the
//! engine has one any more.  A shard per document (a map and a set per
//! distinct token, per document) only built 1.6k–11k small maps to fold them
//! into one: at the benchmark's paper scale the shard → merge build took
//! 142 / 48 / 237 / 280 ms (factbook-olap / mondial-links / googlebase-flat /
//! recipeml-ingest) against 26 / 10 / 38 / 54 ms for the fold — less than the
//! old *merge phase alone*.

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId, PathId};

use crate::query::FullTextQuery;
use crate::tokenize::terms;

/// Where the per-path occurrence counts are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CountStorage {
    /// Counts live in a single map keyed by path ("document store" design,
    /// the paper's choice): no duplication, but resolving a frequency is a
    /// second lookup.
    DocumentStore,
    /// Counts are duplicated into every posting ("posting list" design): one
    /// lookup, more memory.
    PostingLists,
}

/// One entry of a context bucket: a distinct path plus its absolute frequency
/// in the collection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathEntry {
    /// The distinct root-to-leaf path.
    pub path: PathId,
    /// Number of occurrences of this path across all documents (the paper
    /// displays this count, irrespective of the keyword).
    pub frequency: usize,
    /// Number of documents containing this path.
    pub document_frequency: usize,
}

/// The Fig. 8 keyword → paths index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextIndex {
    pub(crate) storage: CountStorage,
    /// keyword → set of paths whose virtual document contains the keyword.
    pub(crate) keyword_paths: HashMap<String, BTreeSet<PathId>>,
    /// Per-(keyword, path) counts; only populated for `PostingLists` storage.
    pub(crate) posting_counts: HashMap<(String, PathId), usize>,
    /// Path → total occurrence count (the "document store").
    pub(crate) path_occurrences: HashMap<PathId, usize>,
    /// Path → number of documents containing the path.
    pub(crate) path_document_frequency: HashMap<PathId, usize>,
    /// All paths in the collection (needed for match-all and NOT queries).
    pub(crate) all_paths: BTreeSet<PathId>,
    /// Paths whose nodes carry text content (match-all context buckets are
    /// restricted to these, since a `*` search query requires content).
    pub(crate) text_paths: BTreeSet<PathId>,
}

impl ContextIndex {
    /// Builds the index over a collection in one pass over its nodes (see
    /// the module docs for why there is no per-document shard phase).
    pub fn build(collection: &Collection, storage: CountStorage) -> Self {
        let mut keyword_paths: HashMap<String, BTreeSet<PathId>> = HashMap::new();
        let mut posting_counts: HashMap<(String, PathId), usize> = HashMap::new();
        let mut post = |token: String, path: PathId| {
            if storage == CountStorage::PostingLists {
                *posting_counts.entry((token.clone(), path)).or_insert(0) += 1;
            }
            // Nearly every occurrence finds its keyword present: look it up
            // by reference, and give the token away only for a first one.
            match keyword_paths.get_mut(&token) {
                Some(paths) => {
                    paths.insert(path);
                }
                None => {
                    keyword_paths.insert(token, BTreeSet::from([path]));
                }
            }
        };

        // Per-path counts, indexed by `PathId`.  A path's document frequency
        // counts the documents that stamped it: `stamp[path]` is the last
        // document seen on the path, so no per-document set is needed.
        let path_ids = collection.paths().len();
        let mut occurrences = vec![0usize; path_ids];
        let mut document_frequency = vec![0usize; path_ids];
        let mut stamp: Vec<Option<DocId>> = vec![None; path_ids];
        let mut text_paths: BTreeSet<PathId> = BTreeSet::new();
        for doc in collection.documents() {
            for (_, node) in doc.iter() {
                let at = node.path.index();
                occurrences[at] += 1;
                if stamp[at] != Some(doc.id) {
                    stamp[at] = Some(doc.id);
                    document_frequency[at] += 1;
                }
                // Content keywords.
                let Some(text) = node.text.as_deref() else { continue };
                let tokens = terms(text);
                if !tokens.is_empty() {
                    text_paths.insert(node.path);
                }
                for token in tokens {
                    post(token, node.path);
                }
            }
        }

        // Tag-name keywords: every label on a path contributes the path to the
        // label's posting list.
        let mut all_paths: BTreeSet<PathId> = BTreeSet::new();
        for (path_id, label_path) in collection.paths().iter() {
            for &step in label_path.steps() {
                for token in terms(collection.symbols().resolve(step)) {
                    post(token, path_id);
                }
            }
            all_paths.insert(path_id);
        }

        // Only paths some node has carry counts.
        let occurring = |counts: Vec<usize>| -> HashMap<PathId, usize> {
            counts
                .into_iter()
                .enumerate()
                .filter(|&(_, count)| count > 0)
                .map(|(at, count)| (PathId(at as u32), count))
                .collect()
        };
        ContextIndex {
            storage,
            path_occurrences: occurring(occurrences),
            path_document_frequency: occurring(document_frequency),
            keyword_paths,
            posting_counts,
            all_paths,
            text_paths,
        }
    }

    /// The count-storage design this index was built with.
    pub fn storage(&self) -> CountStorage {
        self.storage
    }

    /// Number of distinct keywords (content terms plus tag-name terms).
    pub fn keyword_count(&self) -> usize {
        self.keyword_paths.len()
    }

    /// Number of distinct paths known to the index.
    pub fn path_count(&self) -> usize {
        self.all_paths.len()
    }

    /// Total occurrence count of a path in the collection.
    pub fn path_frequency(&self, path: PathId) -> usize {
        self.path_occurrences.get(&path).copied().unwrap_or(0)
    }

    /// Number of documents a path occurs in.
    pub fn path_document_frequency(&self, path: PathId) -> usize {
        self.path_document_frequency.get(&path).copied().unwrap_or(0)
    }

    /// Rough memory footprint of the postings + counts, in entries; used by
    /// the Fig. 8 design-ablation bench to compare the two count storages.
    pub fn count_entries(&self) -> usize {
        match self.storage {
            CountStorage::DocumentStore => self.path_occurrences.len(),
            CountStorage::PostingLists => self.posting_counts.len(),
        }
    }

    fn paths_for_term(&self, term: &str) -> BTreeSet<PathId> {
        self.keyword_paths.get(term).cloned().unwrap_or_default()
    }

    /// Distinct paths whose virtual document satisfies `query`.
    ///
    /// Keyword bags are conjunctive (every keyword must appear somewhere in
    /// the path's virtual document); phrases are approximated conjunctively at
    /// path granularity, which can only over-report contexts — the user will
    /// simply see an extra context to deselect.
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

    /// The context bucket of a search query: matching paths with their
    /// absolute frequencies, sorted by descending frequency (the order SEDA
    /// displays them in).
    pub fn context_bucket(&self, query: &FullTextQuery) -> Vec<PathEntry> {
        self.bucket_from_paths(self.paths_matching(query))
    }

    /// Context bucket restricted to paths whose *leaf tag name* matches
    /// `tag` (used when a query term carries a full root-to-leaf context or a
    /// tag-name context; Sec. 5 describes probing the index with the last tag
    /// name in conjunction with the search query).
    pub fn context_bucket_with_tag(
        &self,
        collection: &Collection,
        query: &FullTextQuery,
        tag: &str,
    ) -> Vec<PathEntry> {
        let matching = self.paths_matching(query);
        let filtered: BTreeSet<PathId> = matching
            .into_iter()
            .filter(|&p| {
                collection
                    .paths()
                    .resolve(p)
                    .leaf()
                    .map(|leaf| collection.symbols().resolve(leaf) == tag)
                    .unwrap_or(false)
            })
            .collect();
        self.bucket_from_paths(filtered)
    }

    fn bucket_from_paths(&self, paths: BTreeSet<PathId>) -> Vec<PathEntry> {
        let mut entries: Vec<PathEntry> = paths
            .into_iter()
            .map(|path| PathEntry {
                path,
                frequency: self.path_frequency(path),
                document_frequency: self.path_document_frequency(path),
            })
            .collect();
        entries.sort_by(|a, b| b.frequency.cmp(&a.frequency).then(a.path.cmp(&b.path)));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> (Collection, ContextIndex) {
        let docs = vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                   <economy>
                     <import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners>
                     <export_partners>
                       <item><trade_country>Canada</trade_country><percentage>23.4</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
            (
                "mexico.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                   <economy>
                     <export_partners>
                       <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
        ];
        let collection = parse_collection(docs).unwrap();
        let index = ContextIndex::build(&collection, CountStorage::DocumentStore);
        (collection, index)
    }

    fn path_strings(collection: &Collection, entries: &[PathEntry]) -> Vec<String> {
        entries.iter().map(|e| collection.path_string(e.path)).collect()
    }

    #[test]
    fn united_states_occurs_in_two_contexts() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::phrase("United States"));
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/name".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/trade_country".to_string()));
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn tag_name_keywords_are_indexed() {
        let (collection, index) = sample();
        // "percentage" never appears as content, only as a tag name; its
        // bucket must contain both import- and export-partner percentage
        // contexts (the paper's Query 1 relies on this).
        let bucket = index.context_bucket(&FullTextQuery::keywords("percentage"));
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/economy/import_partners/item/percentage".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/percentage".to_string()));
    }

    #[test]
    fn frequencies_are_absolute_path_counts() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::keywords("trade country"));
        // Export-partner trade_country occurs twice (US->Canada, Mexico->US),
        // import-partner trade_country once.
        let export: Vec<&PathEntry> = bucket
            .iter()
            .filter(|e| collection.path_string(e.path).contains("export_partners"))
            .collect();
        let import: Vec<&PathEntry> = bucket
            .iter()
            .filter(|e| collection.path_string(e.path).contains("import_partners"))
            .collect();
        assert_eq!(export[0].frequency, 2);
        assert_eq!(import[0].frequency, 1);
        // Sorted by descending frequency.
        assert!(bucket[0].frequency >= bucket[bucket.len() - 1].frequency);
    }

    #[test]
    fn match_all_bucket_contains_only_text_paths() {
        let (collection, index) = sample();
        let bucket = index.context_bucket(&FullTextQuery::Any);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/year".to_string()));
        assert!(
            !paths.contains(&"/country/economy".to_string()),
            "interior structural nodes without text are not contexts for `*`"
        );
    }

    #[test]
    fn tag_filtered_bucket_restricts_to_leaf_name() {
        let (collection, index) = sample();
        let bucket =
            index.context_bucket_with_tag(&collection, &FullTextQuery::Any, "trade_country");
        let paths = path_strings(&collection, &bucket);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.ends_with("/trade_country")));
    }

    #[test]
    fn boolean_queries_combine_path_sets() {
        let (collection, index) = sample();
        let q = FullTextQuery::parse("china OR canada").unwrap();
        let bucket = index.context_bucket(&q);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.iter().any(|p| p.contains("import_partners")));
        assert!(paths.iter().any(|p| p.contains("export_partners")));

        let not_q = FullTextQuery::parse("NOT china").unwrap();
        let bucket = index.context_bucket(&not_q);
        assert!(!path_strings(&collection, &bucket)
            .contains(&"/country/economy/import_partners/item/trade_country".to_string()));
    }

    #[test]
    fn both_count_storages_agree_on_buckets() {
        let (collection, _) = sample();
        let doc_store = ContextIndex::build(&collection, CountStorage::DocumentStore);
        let postings = ContextIndex::build(&collection, CountStorage::PostingLists);
        let q = FullTextQuery::phrase("united states");
        assert_eq!(doc_store.context_bucket(&q), postings.context_bucket(&q));
        // The posting-list design stores at least as many count entries.
        assert!(postings.count_entries() >= doc_store.count_entries());
    }

    #[test]
    fn statistics_accessors() {
        let (collection, index) = sample();
        assert_eq!(index.path_count(), collection.distinct_path_count());
        assert!(index.keyword_count() > 10);
        let name = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        assert_eq!(index.path_frequency(name), 2);
        assert_eq!(index.path_document_frequency(name), 2);
    }
}
