//! The keyword → distinct-path "context" index of Figure 8.
//!
//! The paper maintains "a full-text index which maps individual keywords to
//! the set of distinct paths in which they appear", treating each distinct
//! root-to-leaf path as a virtual document whose content is (a) the text of
//! every node with that context and (b) the tag names on the path itself.
//! SEDA uses this index to compute the *context bucket* of every query term —
//! all distinct paths the term appears in across the entire collection —
//! together with the absolute frequency of each path (not the frequency of the
//! keyword within the path; Sec. 5 explains that choice).  The per-path counts
//! live once per path, the paper's "document store" design, not duplicated
//! into every posting.
//!
//! # A view of the node index
//!
//! The index stores nothing it can derive — the rule the FIB-compression
//! work (arXiv 1706.04405) applies to forwarding tables.  Half of every
//! virtual document is already in the [`NodeIndex`]: a text keyword's paths
//! are the distinct context paths of its postings (the node index's term →
//! paths table), and the paths with text are those with a non-empty
//! match-all run.  [`ContextIndex`] keeps only what the node index cannot
//! derive:
//!
//! * the **tag-name keywords** — a label-token → ascending-paths CSR over the
//!   path table;
//! * the **per-path counts** — occurrences and documents, arrays by
//!   [`PathId`] ([`Collection::path_counts`]).
//!
//! [`ContextIndex::paths_matching`] and [`ContextIndex::context_bucket`]
//! take the node index they read text keywords from: a keyword's paths are
//! its term → paths run merged with its label run.
//!
//! # Build
//!
//! [`ContextIndex::build`] tokenises no text: the store's one pass over the
//! nodes gives the counts, and one pass over the path table tokenises each
//! distinct label symbol once and lists every path under the tokens of its
//! labels.

use seda_xmlstore::{Collection, PathCounts, PathId};

use crate::dict::{csr_row, FirstSeen, TermDict, TermId};
use crate::node_index::NodeIndex;
use crate::query::FullTextQuery;
use crate::tokenize::for_each_term;

/// Where the per-path occurrence counts are stored: once per path, the
/// paper's choice and the one design.  Kept only because `benchmark/` still
/// passes `EngineConfig::count_storage` to [`ContextIndex::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountStorage {
    /// Counts live in one table keyed by path ("document store" design):
    /// no duplication, and resolving a frequency is a second lookup.
    DocumentStore,
}

/// One entry of a context bucket: a distinct path plus its absolute frequency
/// in the collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathEntry {
    /// The distinct root-to-leaf path.
    pub path: PathId,
    /// Number of occurrences of this path across all documents (the paper
    /// displays this count, irrespective of the keyword).
    pub frequency: usize,
    /// Number of documents containing this path.
    pub document_frequency: usize,
}

/// The Fig. 8 keyword → paths index: the tag-name keywords and the per-path
/// counts, read together with the [`NodeIndex`] that holds the text
/// keywords (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ContextIndex {
    /// Tokens of the labels on the path table; ids in lexicographic order.
    pub(crate) labels: TermDict,
    /// CSR offsets into `label_paths`, length `labels.len() + 1`.
    pub(crate) label_path_offsets: Vec<u32>,
    /// Each label token's paths — those with a step whose label holds the
    /// token — strictly ascending.
    pub(crate) label_paths: Vec<PathId>,
    /// Occurrences and documents per path.  Every path of the table has an
    /// entry, so the arrays' length is also the universe `NOT` is taken in.
    pub(crate) counts: PathCounts,
}

impl ContextIndex {
    /// Builds the index over a collection (see the module docs); the one
    /// [`CountStorage`] is the only value `_storage` can take.
    pub fn build(collection: &Collection, _storage: CountStorage) -> Self {
        let symbols = collection.symbols();
        let (mut first_seen, mut buf) = (FirstSeen::default(), String::new());
        // Each distinct label symbol is tokenised once, the first time a path
        // names it; every path is listed under the tokens of its labels.
        let mut symbol_tokens: Vec<Option<Vec<u32>>> = vec![None; symbols.len()];
        let mut pairs: Vec<(u32, PathId)> = Vec::new();
        for (path, label_path) in collection.paths().iter() {
            for &step in label_path.steps() {
                let tokens = symbol_tokens[step.index()].get_or_insert_with(|| {
                    let mut tokens = Vec::new();
                    let name = symbols.resolve(step);
                    for_each_term(name, &mut buf, |token| tokens.push(first_seen.id(token)));
                    tokens
                });
                pairs.extend(tokens.iter().map(|&id| (id, path)));
            }
        }
        let (labels, rank) = first_seen.into_ranked();
        for pair in &mut pairs {
            pair.0 = rank[pair.0 as usize];
        }
        pairs.sort_unstable();
        pairs.dedup();
        // Every label token has a path, so the runs of `pairs` are the rows.
        let (mut label_path_offsets, mut label_paths) = (vec![0u32], Vec::new());
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            label_paths.extend(run.iter().map(|&(_, path)| path));
            label_path_offsets.push(label_paths.len() as u32);
        }
        ContextIndex { labels, label_path_offsets, label_paths, counts: collection.path_counts() }
    }

    /// The paths whose tag names hold `term`, ascending.
    fn label_paths_of(&self, term: &str) -> &[PathId] {
        let row = |id: TermId| csr_row(&self.label_path_offsets, &self.label_paths, id.index());
        self.labels.get(term).map_or(&[], row)
    }

    /// The paths whose virtual document holds `term`: its text paths merged
    /// with its label paths, ascending.
    fn keyword_paths(&self, nodes: &NodeIndex, term: &str) -> Vec<PathId> {
        union(nodes.term_paths_of(term), self.label_paths_of(term))
    }

    /// Distinct paths whose virtual document satisfies `query`, ascending;
    /// `nodes` is the node index of the same collection, which holds the
    /// text keywords.
    ///
    /// Keyword bags are conjunctive (every keyword must appear somewhere in
    /// the path's virtual document); phrases are approximated conjunctively at
    /// path granularity, which can only over-report contexts — the user will
    /// simply see an extra context to deselect.
    pub fn paths_matching(&self, nodes: &NodeIndex, query: &FullTextQuery) -> Vec<PathId> {
        match query {
            FullTextQuery::Any => nodes.text_paths().collect(),
            FullTextQuery::Keywords(ts) | FullTextQuery::Phrase(ts) => {
                let Some((first, rest)) = ts.split_first() else {
                    return nodes.text_paths().collect();
                };
                let mut acc = self.keyword_paths(nodes, first);
                for t in rest {
                    if acc.is_empty() {
                        break;
                    }
                    acc = intersection(&acc, &self.keyword_paths(nodes, t));
                }
                acc
            }
            FullTextQuery::And(a, b) => {
                intersection(&self.paths_matching(nodes, a), &self.paths_matching(nodes, b))
            }
            FullTextQuery::Or(a, b) => {
                union(&self.paths_matching(nodes, a), &self.paths_matching(nodes, b))
            }
            FullTextQuery::Not(inner) => {
                let inner = self.paths_matching(nodes, inner);
                (0..self.counts.occurrences.len() as u32)
                    .map(PathId)
                    .filter(|path| inner.binary_search(path).is_err())
                    .collect()
            }
        }
    }

    /// The context bucket of a search query: matching paths with their
    /// absolute frequencies, sorted by descending frequency (the order SEDA
    /// displays them in).  With `allowed`, only the matching paths among
    /// those are kept — a query term's own context (Sec. 5) — and they are
    /// kept before any frequency is looked up.
    pub fn context_bucket(
        &self,
        nodes: &NodeIndex,
        query: &FullTextQuery,
        allowed: Option<&[PathId]>,
    ) -> Vec<PathEntry> {
        let mut paths = self.paths_matching(nodes, query);
        if let Some(allowed) = allowed {
            let mut kept: Vec<PathId> =
                allowed.iter().copied().filter(|path| paths.binary_search(path).is_ok()).collect();
            kept.sort_unstable();
            kept.dedup();
            paths = kept;
        }
        let mut entries: Vec<PathEntry> = paths
            .into_iter()
            .map(|path| {
                let count = |counts: &[usize]| counts.get(path.index()).copied().unwrap_or(0);
                let (occurrences, documents) = (&self.counts.occurrences, &self.counts.documents);
                PathEntry {
                    path,
                    frequency: count(occurrences),
                    document_frequency: count(documents),
                }
            })
            .collect();
        entries.sort_by(|a, b| b.frequency.cmp(&a.frequency).then(a.path.cmp(&b.path)));
        entries
    }
}

/// The paths of both ascending lists, ascending and distinct.
fn union(a: &[PathId], b: &[PathId]) -> Vec<PathId> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut paths = [a, b].concat();
    paths.sort_unstable();
    paths.dedup();
    paths
}

/// The paths of `a` that `b` (ascending) holds too, in `a`'s order.
fn intersection(a: &[PathId], b: &[PathId]) -> Vec<PathId> {
    a.iter().copied().filter(|path| b.binary_search(path).is_ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> (Collection, NodeIndex, ContextIndex) {
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
        let nodes = NodeIndex::build(&collection);
        let index = ContextIndex::build(&collection, CountStorage::DocumentStore);
        (collection, nodes, index)
    }

    fn path_strings(collection: &Collection, entries: &[PathEntry]) -> Vec<String> {
        entries.iter().map(|e| collection.path_string(e.path)).collect()
    }

    #[test]
    fn united_states_occurs_in_two_contexts() {
        let (collection, nodes, index) = sample();
        let bucket = index.context_bucket(&nodes, &FullTextQuery::phrase("United States"), None);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/name".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/trade_country".to_string()));
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn tag_name_keywords_are_indexed() {
        let (collection, nodes, index) = sample();
        // "percentage" never appears as content, only as a tag name; its
        // bucket must contain both import- and export-partner percentage
        // contexts (the paper's Query 1 relies on this).
        let bucket = index.context_bucket(&nodes, &FullTextQuery::keywords("percentage"), None);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/economy/import_partners/item/percentage".to_string()));
        assert!(paths.contains(&"/country/economy/export_partners/item/percentage".to_string()));
    }

    #[test]
    fn frequencies_are_absolute_path_counts() {
        let (collection, nodes, index) = sample();
        let bucket = index.context_bucket(&nodes, &FullTextQuery::keywords("trade country"), None);
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
        let (collection, nodes, index) = sample();
        let bucket = index.context_bucket(&nodes, &FullTextQuery::Any, None);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.contains(&"/country/year".to_string()));
        assert!(
            !paths.contains(&"/country/economy".to_string()),
            "interior structural nodes without text are not contexts for `*`"
        );
    }

    #[test]
    fn allowed_paths_restrict_the_bucket() {
        let (collection, nodes, index) = sample();
        let leaf = collection.symbols().get("trade_country").unwrap();
        let allowed = collection.paths().paths_with_leaf(leaf);
        let bucket = index.context_bucket(&nodes, &FullTextQuery::Any, Some(&allowed));
        let paths = path_strings(&collection, &bucket);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.ends_with("/trade_country")));
        // An allowed path the search does not match stays out, and a
        // repeated one is listed once.
        let name = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        let china = FullTextQuery::keywords("china");
        let bucket = index.context_bucket(&nodes, &china, Some(&[allowed[0], name, allowed[0]]));
        assert_eq!(path_strings(&collection, &bucket), [collection.path_string(allowed[0])]);
    }

    #[test]
    fn boolean_queries_combine_path_sets() {
        let (collection, nodes, index) = sample();
        let q = FullTextQuery::Or(
            Box::new(FullTextQuery::keywords("china")),
            Box::new(FullTextQuery::keywords("canada")),
        );
        let bucket = index.context_bucket(&nodes, &q, None);
        let paths = path_strings(&collection, &bucket);
        assert!(paths.iter().any(|p| p.contains("import_partners")));
        assert!(paths.iter().any(|p| p.contains("export_partners")));

        let not_q = FullTextQuery::Not(Box::new(FullTextQuery::keywords("china")));
        let bucket = index.context_bucket(&nodes, &not_q, None);
        assert!(!path_strings(&collection, &bucket)
            .contains(&"/country/economy/import_partners/item/trade_country".to_string()));
    }

    #[test]
    fn statistics_accessors() {
        let (collection, _, index) = sample();
        assert_eq!(index.counts.occurrences.len(), collection.distinct_path_count());
        assert_eq!(index.counts.documents.len(), collection.distinct_path_count());
        let name = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        assert_eq!(index.counts.occurrences[name.index()], 2);
        assert_eq!(index.counts.documents[name.index()], 2);
    }
}
