//! Inverted index over node content.
//!
//! This is the index the top-k search unit (Sec. 4) reads: for every node that
//! carries text, the index stores a posting per term with term frequency and
//! positions.  It supports the two access paths the Threshold Algorithm needs:
//!
//! * **sorted access** — per-term posting lists ordered by descending content
//!   score, and
//! * **random access** — scoring an arbitrary `(query, node)` pair.
//!
//! Matches are attributed to the node that *directly* contains the text (the
//! deepest element or attribute), mirroring the paper's examples where
//! `"United States"` hits `country` and `trade_country` nodes rather than
//! every ancestor up to the document root.
//!
//! # Read model
//!
//! The build artifacts (`postings`, `node_tokens`, `node_paths`) are plain
//! maps, but sorted access never touches them.  At the end of
//! [`NodeIndex::merge`] the index freezes an **interned read model**:
//!
//! * terms are interned into a [`TermDict`] and per-term posting lists live
//!   in one CSR arena **pre-sorted by descending content score** (idf folded
//!   in), with a parallel array holding each posting's context path;
//! * the match-all list `(tag, *)` is stored **partitioned by context path**:
//!   a second CSR, keyed by [`PathId`], whose per-path runs hold every indexed
//!   node of that path with its match-all score, pre-sorted the same way;
//! * a dense node side table carries each indexed node's context path and
//!   token length for random access.
//!
//! [`NodeIndex::sorted_access`] therefore returns a borrowed slice, and
//! [`NodeIndex::evaluate_into`] costs what it returns: a single-term or
//! match-all query is a filtered copy of pre-sorted entries, and only a
//! phrase, multi-keyword or boolean query scores its candidates (the union of
//! its positive terms' postings) and sorts them.  No query walks every
//! indexed node unless it is itself unrestricted.  What the two path tables
//! cost is stated, and asserted, at [`NodeIndex::read_model_bytes`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId, Document, NodeId, PathId};

use crate::dict::{TermDict, TermId};
use crate::query::FullTextQuery;
use crate::tokenize::{terms, tokenize};

/// One posting: a node containing a term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Posting {
    /// Node containing the term.
    pub node: NodeId,
    /// Number of occurrences of the term in the node's direct text.
    pub tf: u32,
    /// Token positions of the occurrences (for phrase verification).
    pub positions: Vec<u32>,
}

/// A node matched by a query, with its content score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredNode {
    /// The matching node.
    pub node: NodeId,
    /// Content score (tf-idf, length-normalised); higher is better.
    pub score: f64,
}

/// The order of every list the index hands out: descending score, ties
/// broken by ascending node id.
pub(crate) fn ranked(a: &ScoredNode, b: &ScoredNode) -> Ordering {
    b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal).then(a.node.cmp(&b.node))
}

/// Content score of a match-all hit (`*`, or a query with no positive term)
/// on a node of `len` tokens: every node of one length scores equally, and
/// low enough that structural compactness dominates the combined score.
pub(crate) fn match_all_score(len: usize) -> f64 {
    1.0 / (len as f64).sqrt().max(1.0)
}

/// Inverse document frequency with the usual smoothing.
fn smoothed_idf(indexed_nodes: usize, df: usize) -> f64 {
    ((1.0 + indexed_nodes as f64) / (1.0 + df as f64)).ln() + 1.0
}

/// Heap bytes held by the frozen read model of a [`NodeIndex`], table by
/// table (see [`NodeIndex::read_model_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadModelBytes {
    /// Term dictionary (both directions, term text included) and idf table.
    pub dictionary: usize,
    /// Score-sorted posting arena and its per-term CSR offsets.
    pub posting_arena: usize,
    /// Per-posting context paths, parallel to the posting arena.
    pub posting_paths: usize,
    /// Path-partitioned match-all runs and their per-path CSR offsets.
    pub path_runs: usize,
    /// Node side tables: slot → node, slot → path, slot → token count.
    pub side_tables: usize,
}

impl ReadModelBytes {
    /// Sum over all tables.
    pub fn total(&self) -> usize {
        self.dictionary
            + self.posting_arena
            + self.posting_paths
            + self.path_runs
            + self.side_tables
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Node → side-table slot without hashing, for the passes that look up every
/// posting or every indexed node (the read-model build, the audit).  Slots
/// ascend by node id, so a document's slots are one contiguous range and the
/// node is found by binary search inside it.
pub(crate) struct SlotLookup<'a> {
    nodes: &'a [NodeId],
    /// Every document with a slot, ascending, with its first slot.
    docs: Vec<(DocId, u32)>,
}

impl<'a> SlotLookup<'a> {
    /// `nodes` is the side table's `slot_nodes`: strictly ascending.
    pub(crate) fn new(nodes: &'a [NodeId]) -> Self {
        let mut docs: Vec<(DocId, u32)> = Vec::new();
        for (slot, node) in nodes.iter().enumerate() {
            if docs.last().is_none_or(|&(doc, _)| doc != node.doc) {
                docs.push((node.doc, slot as u32));
            }
        }
        SlotLookup { nodes, docs }
    }

    pub(crate) fn slot(&self, node: NodeId) -> Option<usize> {
        // Document ids are dense, so document `d` is entry `d` unless an
        // earlier document holds no text.
        let entry = match self.docs.get(node.doc.index()) {
            Some(&(doc, _)) if doc == node.doc => node.doc.index(),
            _ => self.docs.binary_search_by_key(&node.doc, |&(doc, _)| doc).ok()?,
        };
        let start = self.docs[entry].1 as usize;
        let end = self.docs.get(entry + 1).map_or(self.nodes.len(), |&(_, next)| next as usize);
        self.nodes[start..end].binary_search(&node).ok().map(|at| start + at)
    }
}

/// Inverted full-text index over the direct text content of nodes.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeIndex {
    pub(crate) postings: HashMap<String, Vec<Posting>>,
    /// Tokenised direct text of every indexed node (random access / phrase
    /// verification).
    pub(crate) node_tokens: HashMap<NodeId, Vec<String>>,
    /// Context path of every indexed node (context filtering).
    pub(crate) node_paths: HashMap<NodeId, PathId>,
    pub(crate) indexed_nodes: usize,

    // ---- interned read model, frozen by `rebuild_read_model` ----
    /// Term intern table; ids are lexicographic ranks, so deterministic.
    pub(crate) dict: TermDict,
    /// Smoothed idf per term id.
    pub(crate) idf_by_term: Vec<f64>,
    /// CSR offsets into `sorted_postings`, length `dict.len() + 1`.
    pub(crate) posting_offsets: Vec<u32>,
    /// Per-term postings pre-sorted by (score desc, node asc), idf folded in.
    pub(crate) sorted_postings: Vec<ScoredNode>,
    /// Context path of each posting's node, parallel to `sorted_postings`, so
    /// path filtering reads one sequential array and looks no node up.
    pub(crate) posting_paths: Vec<PathId>,
    /// CSR offsets into `path_runs`, indexed by `PathId`; length is the
    /// largest indexed path id + 2.
    pub(crate) path_run_offsets: Vec<u32>,
    /// The match-all list partitioned by context path: every indexed node
    /// once, in its own path's run, scored `1/√len`, each run pre-sorted by
    /// (score desc, node asc).
    pub(crate) path_runs: Vec<ScoredNode>,
    /// Slot → node id: every indexed node once, in ascending `NodeId` order.
    pub(crate) slot_nodes: Vec<NodeId>,
    /// Slot → context path (side table for path filtering).
    pub(crate) slot_paths: Vec<PathId>,
    /// Slot → token count (side table for length normalisation).
    pub(crate) slot_token_counts: Vec<u32>,
}

/// Partial node index over a single document, produced by
/// [`NodeIndex::build_shard`] and consumed by [`NodeIndex::merge`].
///
/// Shards carry globally valid [`NodeId`]s and [`PathId`]s because documents
/// of a [`Collection`] share its symbol and path intern tables, so merging is
/// a plain k-way union with no id remapping.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeIndexShard {
    doc: Option<DocId>,
    postings: HashMap<String, Vec<Posting>>,
    node_tokens: HashMap<NodeId, Vec<String>>,
    node_paths: HashMap<NodeId, PathId>,
    indexed_nodes: usize,
}

impl NodeIndexShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of nodes with indexed content in this shard.
    pub fn indexed_node_count(&self) -> usize {
        self.indexed_nodes
    }
}

impl NodeIndex {
    /// Builds the index over every node of the collection that has direct
    /// text content (elements with text and attributes).
    ///
    /// This is the sequential reference path; it is equivalent to building
    /// one shard per document with [`NodeIndex::build_shard`] and combining
    /// them with [`NodeIndex::merge`].
    pub fn build(collection: &Collection) -> Self {
        Self::merge(collection.documents().map(Self::build_shard).collect())
    }

    /// Builds the partial index of a single document (the per-shard phase of
    /// the shard → merge build lifecycle).
    pub fn build_shard(doc: &Document) -> NodeIndexShard {
        let mut shard = NodeIndexShard { doc: Some(doc.id), ..NodeIndexShard::default() };
        for (ordinal, node) in doc.iter() {
            let Some(text) = node.text.as_deref() else { continue };
            let tokens = tokenize(text);
            if tokens.is_empty() {
                continue;
            }
            let node_id = NodeId::new(doc.id, ordinal);
            let mut tfs: HashMap<&str, (u32, Vec<u32>)> = HashMap::new();
            for token in &tokens {
                let entry = tfs.entry(token.text.as_str()).or_insert((0, Vec::new()));
                entry.0 += 1;
                entry.1.push(token.position);
            }
            for (term, (tf, positions)) in tfs {
                shard.postings.entry(term.to_string()).or_default().push(Posting {
                    node: node_id,
                    tf,
                    positions,
                });
            }
            shard.node_tokens.insert(node_id, tokens.into_iter().map(|t| t.text).collect());
            shard.node_paths.insert(node_id, node.path);
            shard.indexed_nodes += 1;
        }
        shard
    }

    /// Merges per-document shards into the full index (the merge phase of the
    /// shard → merge build lifecycle) and freezes the interned read model.
    ///
    /// Shards are merged in ascending document order regardless of the order
    /// they are passed in, so the result is deterministic and identical to
    /// the sequential [`NodeIndex::build`].
    pub fn merge(mut shards: Vec<NodeIndexShard>) -> Self {
        shards.sort_by_key(|s| s.doc);
        let mut index = NodeIndex::default();
        for shard in shards {
            for (term, postings) in shard.postings {
                index.postings.entry(term).or_default().extend(postings);
            }
            index.node_tokens.extend(shard.node_tokens);
            index.node_paths.extend(shard.node_paths);
            index.indexed_nodes += shard.indexed_nodes;
        }
        // Per-term posting lists are concatenated in document order; keep them
        // sorted by node id for deterministic iteration.
        for postings in index.postings.values_mut() {
            postings.sort_by_key(|p| p.node);
        }
        index.rebuild_read_model();
        index
    }

    /// Freezes the interned read model from the merged build artifacts: the
    /// node side table, the term dictionary, the idf table, the score-sorted
    /// posting arena with its parallel path array, and the path-partitioned
    /// match-all runs.
    fn rebuild_read_model(&mut self) {
        let mut nodes: Vec<(NodeId, u32)> =
            self.node_tokens.iter().map(|(&node, tokens)| (node, tokens.len() as u32)).collect();
        nodes.sort_unstable_by_key(|&(node, _)| node);
        self.slot_nodes = nodes.iter().map(|&(node, _)| node).collect();
        self.slot_token_counts = nodes.iter().map(|&(_, len)| len).collect();
        self.slot_paths = self.slot_nodes.iter().map(|node| self.node_paths[node]).collect();
        let slots = SlotLookup::new(&self.slot_nodes);

        let mut lists: Vec<(&str, &[Posting])> =
            self.postings.iter().map(|(term, list)| (term.as_str(), list.as_slice())).collect();
        lists.sort_unstable_by_key(|&(term, _)| term);
        self.dict = TermDict::from_sorted(lists.iter().map(|&(term, _)| term));

        let total: usize = lists.iter().map(|(_, list)| list.len()).sum();
        self.idf_by_term = Vec::with_capacity(lists.len());
        self.posting_offsets = Vec::with_capacity(lists.len() + 1);
        self.posting_offsets.push(0);
        self.sorted_postings = Vec::with_capacity(total);
        self.posting_paths = Vec::with_capacity(total);
        // One term's postings with their paths, so the score sort carries
        // each posting's path along and nothing is looked up twice.
        let mut run: Vec<(ScoredNode, PathId)> = Vec::new();
        for &(_, list) in &lists {
            let idf = smoothed_idf(self.indexed_nodes, list.len());
            self.idf_by_term.push(idf);
            run.clear();
            run.extend(list.iter().map(|posting| {
                // One slot lookup per posting yields both the length the
                // score is normalised by and the path.
                let slot = slots
                    .slot(posting.node)
                    .expect("invariant: every posting's node has a slot (node-side-table)");
                let len = self.slot_token_counts[slot].max(1) as f64;
                let score = (posting.tf as f64) * idf / len.sqrt();
                (ScoredNode { node: posting.node, score }, self.slot_paths[slot])
            }));
            run.sort_by(|a, b| ranked(&a.0, &b.0));
            self.sorted_postings.extend(run.iter().map(|&(scored, _)| scored));
            self.posting_paths.extend(run.iter().map(|&(_, path)| path));
            self.posting_offsets.push(self.sorted_postings.len() as u32);
        }
        self.rebuild_path_runs();
    }

    /// Partitions the indexed nodes by context path into `path_runs`: a
    /// counting sort of the slots by path id, then a sort of each run by
    /// (score desc, node asc).  Slots ascend by node id, so a run comes out of
    /// the counting sort in node order: one whose nodes all have one length
    /// is already sorted, and its sort is a single pass.
    fn rebuild_path_runs(&mut self) {
        let path_slots = self.slot_paths.iter().map(|path| path.index() + 1).max().unwrap_or(0);
        let mut offsets = vec![0u32; path_slots + 1];
        for path in &self.slot_paths {
            offsets[path.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursors = offsets.clone();
        let placeholder = ScoredNode { node: NodeId::new(DocId(0), 0), score: 0.0 };
        let mut runs = vec![placeholder; self.slot_nodes.len()];
        for (slot, &node) in self.slot_nodes.iter().enumerate() {
            let cursor = &mut cursors[self.slot_paths[slot].index()];
            let score = match_all_score(self.slot_token_counts[slot] as usize);
            runs[*cursor as usize] = ScoredNode { node, score };
            *cursor += 1;
        }
        for bounds in offsets.windows(2) {
            runs[bounds[0] as usize..bounds[1] as usize].sort_by(ranked);
        }
        self.path_run_offsets = offsets;
        self.path_runs = runs;
    }

    /// Number of nodes with indexed content.
    pub fn indexed_node_count(&self) -> usize {
        self.indexed_nodes
    }

    /// Number of distinct terms in the index.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// The interned term dictionary of the read model.
    pub fn term_dict(&self) -> &TermDict {
        &self.dict
    }

    /// Document frequency of a term (number of nodes containing it).
    pub fn document_frequency(&self, term: &str) -> usize {
        self.postings.get(term).map(Vec::len).unwrap_or(0)
    }

    /// Inverse document frequency with the usual smoothing.
    pub fn idf(&self, term: &str) -> f64 {
        smoothed_idf(self.indexed_nodes, self.document_frequency(term))
    }

    /// The context path of an indexed node.
    pub fn node_path(&self, node: NodeId) -> Option<PathId> {
        self.node_paths.get(&node).copied()
    }

    /// The read-model side table entry of an indexed node: its context path
    /// and token count (the inputs of path filtering and length
    /// normalisation), or `None` for nodes without indexed content.
    pub fn node_entry(&self, node: NodeId) -> Option<(PathId, u32)> {
        let slot = self.slot_nodes.binary_search(&node).ok()?;
        Some((self.slot_paths[slot], self.slot_token_counts[slot]))
    }

    /// The tokenised direct text of an indexed node.
    pub fn node_tokens(&self, node: NodeId) -> Option<&[String]> {
        self.node_tokens.get(&node).map(Vec::as_slice)
    }

    /// idf via the precomputed per-term table, falling back to the formula
    /// for terms outside the dictionary (df = 0, so the value only matters
    /// for the smoothing constant).
    fn interned_idf(&self, term: &str) -> f64 {
        match self.dict.get(term) {
            Some(id) => self.idf_by_term[id.index()],
            None => self.idf(term),
        }
    }

    /// Content score of `query` for `node`, or `None` when the node does not
    /// satisfy the query (random access for the Threshold Algorithm).
    pub fn score(&self, query: &FullTextQuery, node: NodeId) -> Option<f64> {
        let tokens = self.node_tokens.get(&node)?;
        if !query.matches_tokens(tokens) {
            return None;
        }
        Some(self.score_tokens(&query.positive_terms(), tokens))
    }

    /// Content score of a node with the given tokens that satisfies a query
    /// whose positive terms are `positive`: the sum of their length-normalised
    /// tf-idf scores, or the match-all score when there is none.
    fn score_tokens(&self, positive: &[String], tokens: &[String]) -> f64 {
        if positive.is_empty() {
            return match_all_score(tokens.len());
        }
        let norm = (tokens.len().max(1) as f64).sqrt();
        positive
            .iter()
            .map(|term| {
                let tf = tokens.iter().filter(|t| *t == term).count();
                if tf == 0 {
                    0.0
                } else {
                    (tf as f64) * self.interned_idf(term) / norm
                }
            })
            .sum()
    }

    /// All nodes satisfying the query, scored, in descending score order
    /// (ties broken by node id for determinism).
    pub fn evaluate(&self, query: &FullTextQuery) -> Vec<ScoredNode> {
        let mut out = Vec::new();
        self.evaluate_into(query, None, &mut Vec::new(), &mut out);
        out
    }

    /// Like [`NodeIndex::evaluate`] but restricted to nodes whose context path
    /// satisfies `allowed` (used after the user picks contexts in the context
    /// summary).
    pub fn evaluate_in_paths(&self, query: &FullTextQuery, allowed: &[PathId]) -> Vec<ScoredNode> {
        let mut out = Vec::new();
        self.evaluate_into(query, Some(allowed), &mut Vec::new(), &mut out);
        out
    }

    /// Evaluates `query` into caller-owned buffers (the form backing
    /// [`NodeIndex::evaluate`]): `out` receives the scored matches in
    /// descending score order (ties broken by node id), `candidates` is an
    /// internal scratch buffer.  Both are cleared first.
    ///
    /// `allowed` restricts the matches to nodes on one of the given context
    /// paths; it may be in any order, repeat a path or name paths no indexed
    /// node has, and an empty slice matches nothing.  The cost follows the
    /// query's shape, never the size of the index:
    ///
    /// * **one positive term** (a keyword or a one-token phrase) — the term's
    ///   pre-sorted posting slice, filtered through the parallel path array:
    ///   one pass over the term's postings, no scoring, no sort, and a single
    ///   copy when `allowed` is `None`;
    /// * **no positive term** (`*`, an empty bag, a pure negation) — the
    ///   pre-sorted runs of the allowed paths (all runs for `None`): a copy for
    ///   one path, a copy plus one stable sort over the concatenated runs for
    ///   several; a negation also checks each run entry's tokens;
    /// * **anything else** (several keywords, a phrase, a boolean combination)
    ///   — the union of the positive terms' postings on allowed paths is
    ///   matched against the node tokens, scored and sorted.  Candidates come
    ///   from positive postings only, so a disjunction with a negated branch
    ///   (`a OR NOT b`) returns just the nodes that hold one of its positive
    ///   terms.
    pub fn evaluate_into(
        &self,
        query: &FullTextQuery,
        allowed: Option<&[PathId]>,
        candidates: &mut Vec<NodeId>,
        out: &mut Vec<ScoredNode>,
    ) {
        out.clear();
        candidates.clear();
        // Every arm wants the allowed set strictly ascending: membership is a
        // binary search, and concatenated runs must not repeat.  Callers
        // usually pass it that way (tag resolution walks the path table in id
        // order); user selections need not.
        let normalised: Vec<PathId>;
        let allowed = match allowed {
            Some(paths) if !paths.windows(2).all(|pair| pair[0] < pair[1]) => {
                let mut sorted = paths.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                normalised = sorted;
                Some(normalised.as_slice())
            }
            other => other,
        };
        if allowed.is_some_and(<[PathId]>::is_empty) {
            return;
        }

        if let Some(term) = query.single_positive_term() {
            let Some(id) = self.dict.get(term) else { return };
            match allowed {
                None => out.extend_from_slice(self.sorted_access_by_id(id)),
                Some(paths) => out.extend(self.postings_on(id, paths)),
            }
            return;
        }

        let positive = query.positive_terms();
        if positive.is_empty() {
            // Only a negation can reject a node here; `*` takes whole runs.
            let verify = !query.is_match_all();
            let mut runs = 0;
            let mut take = |run: &[ScoredNode]| {
                runs += usize::from(!run.is_empty());
                if verify {
                    let matches =
                        |s: &&ScoredNode| query.matches_tokens(&self.node_tokens[&s.node]);
                    out.extend(run.iter().filter(matches));
                } else {
                    out.extend_from_slice(run);
                }
            };
            match allowed {
                Some(paths) => paths.iter().for_each(|&path| take(self.path_run(path))),
                None => self
                    .path_run_offsets
                    .windows(2)
                    .for_each(|b| take(&self.path_runs[b[0] as usize..b[1] as usize])),
            }
            if runs > 1 {
                out.sort_by(ranked);
            }
            return;
        }

        for term in &positive {
            let Some(id) = self.dict.get(term) else { continue };
            match allowed {
                None => candidates.extend(self.sorted_access_by_id(id).iter().map(|s| s.node)),
                Some(paths) => candidates.extend(self.postings_on(id, paths).map(|s| s.node)),
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for &node in candidates.iter() {
            let tokens = &self.node_tokens[&node];
            if query.matches_tokens(tokens) {
                out.push(ScoredNode { node, score: self.score_tokens(&positive, tokens) });
            }
        }
        out.sort_by(ranked);
    }

    /// One term's postings on the given paths (strictly ascending), in
    /// sorted-access order: the posting slice filtered through its parallel
    /// path array.
    fn postings_on<'a>(
        &'a self,
        id: TermId,
        paths: &'a [PathId],
    ) -> impl Iterator<Item = &'a ScoredNode> {
        let range = self.term_range(id);
        self.sorted_postings[range.clone()]
            .iter()
            .zip(&self.posting_paths[range])
            .filter(|(_, path)| paths.binary_search(path).is_ok())
            .map(|(scored, _)| scored)
    }

    /// The run of `path` in the path-partitioned match-all list; empty for a
    /// path no indexed node has, including ids beyond the table.
    fn path_run(&self, path: PathId) -> &[ScoredNode] {
        match self.path_run_offsets.get(path.index()..) {
            Some([start, end, ..]) => &self.path_runs[*start as usize..*end as usize],
            _ => &[],
        }
    }

    /// Per-term sorted access for the Threshold Algorithm: postings of `term`
    /// ordered by descending single-term score, as a borrowed slice of the
    /// pre-sorted posting arena (no per-query work).
    pub fn sorted_access(&self, term: &str) -> &[ScoredNode] {
        match self.dict.get(term) {
            Some(id) => self.sorted_access_by_id(id),
            None => &[],
        }
    }

    /// [`NodeIndex::sorted_access`] by interned term id.
    pub fn sorted_access_by_id(&self, id: TermId) -> &[ScoredNode] {
        &self.sorted_postings[self.term_range(id)]
    }

    /// One term's range of the posting arena and its parallel path array.
    pub(crate) fn term_range(&self, id: TermId) -> Range<usize> {
        self.posting_offsets[id.index()] as usize..self.posting_offsets[id.index() + 1] as usize
    }

    /// Heap bytes of the frozen read model, table by table — what sorted
    /// access and [`NodeIndex::evaluate_into`] read.  The build artifacts the
    /// index also keeps (`postings`, `node_tokens`, `node_paths`: positions and
    /// token text for phrase checks and random access) are not counted here.
    ///
    /// Vectors count their capacity exactly; the dictionary's hash table is
    /// estimated as one entry plus one control byte per slot of capacity.
    ///
    /// # Budget of the path tables
    ///
    /// [`ReadModelBytes::posting_paths`] is 4 B per posting and
    /// [`ReadModelBytes::path_runs`] 16 B per indexed node plus one 4 B offset
    /// per path id — `16 · nodes + 4 · postings + 4 · (path ids + 1)` bytes,
    /// asserted by this module's tests.  At the benchmark's paper scale that
    /// is 3.1 MB on googlebase-flat (150,000 nodes, 184,534 postings), 4.7 MB
    /// on recipeml-ingest, 1.6 MB on factbook-olap and 0.7 MB on
    /// mondial-links: at most 1.5% of the workload's peak resident memory.
    pub fn read_model_bytes(&self) -> ReadModelBytes {
        let term_text: usize = self.dict.terms.iter().map(String::capacity).sum::<usize>()
            + self.dict.ids.keys().map(String::capacity).sum::<usize>();
        let id_table = self.dict.ids.capacity() * (size_of::<(String, TermId)>() + 1);
        ReadModelBytes {
            dictionary: vec_bytes(&self.dict.terms)
                + id_table
                + term_text
                + vec_bytes(&self.idf_by_term),
            posting_arena: vec_bytes(&self.sorted_postings) + vec_bytes(&self.posting_offsets),
            posting_paths: vec_bytes(&self.posting_paths),
            path_runs: vec_bytes(&self.path_runs) + vec_bytes(&self.path_run_offsets),
            side_tables: vec_bytes(&self.slot_nodes)
                + vec_bytes(&self.slot_paths)
                + vec_bytes(&self.slot_token_counts),
        }
    }

    /// Convenience wrapper: evaluate a keyword string.
    pub fn search(&self, keywords: &str) -> Vec<ScoredNode> {
        self.evaluate(&FullTextQuery::Keywords(terms(keywords)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> (Collection, NodeIndex) {
        let docs = vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                   <economy><GDP_ppp>12.31T</GDP_ppp>
                     <import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners>
                   </economy></country>"#,
            ),
            (
                "mexico.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                   <economy><GDP>924.4B</GDP>
                     <export_partners>
                       <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                     </export_partners>
                   </economy></country>"#,
            ),
        ];
        let collection = parse_collection(docs).unwrap();
        let index = NodeIndex::build(&collection);
        (collection, index)
    }

    #[test]
    fn phrase_query_finds_both_contexts() {
        let (collection, index) = sample();
        let results = index.evaluate(&FullTextQuery::phrase("United States"));
        assert_eq!(results.len(), 2);
        let contexts: Vec<String> =
            results.iter().map(|r| collection.context_string(r.node).unwrap()).collect();
        assert!(contexts.contains(&"/country/name".to_string()));
        assert!(
            contexts.contains(&"/country/economy/export_partners/item/trade_country".to_string())
        );
    }

    #[test]
    fn keyword_query_is_conjunctive() {
        let (_, index) = sample();
        assert_eq!(index.search("united states").len(), 2);
        assert_eq!(index.search("united kingdom").len(), 0);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let (_, index) = sample();
        // "china" occurs once; "country" does not occur in content at all;
        // "united" occurs twice. A node matching the rarer term should score
        // at least as high per-term.
        assert!(index.idf("china") > index.idf("united"));
    }

    #[test]
    fn random_access_scores_match_evaluate() {
        let (_, index) = sample();
        let query = FullTextQuery::phrase("united states");
        for hit in index.evaluate(&query) {
            let direct = index.score(&query, hit.node).unwrap();
            assert!((direct - hit.score).abs() < 1e-12);
        }
    }

    #[test]
    fn random_access_returns_none_for_non_matching_nodes() {
        let (_, index) = sample();
        let query = FullTextQuery::keywords("china");
        let canada_hits = index.search("canada");
        assert_eq!(canada_hits.len(), 1);
        assert!(index.score(&query, canada_hits[0].node).is_none());
    }

    #[test]
    fn sorted_access_is_descending() {
        let (_, index) = sample();
        let postings = index.sorted_access("united");
        assert_eq!(postings.len(), 2);
        assert!(postings[0].score >= postings[1].score);
        assert!(index.sorted_access("nonexistent").is_empty());
    }

    #[test]
    fn sorted_access_scores_match_term_scores() {
        let (_, index) = sample();
        for (id, term) in index.term_dict().terms() {
            let by_name = index.sorted_access(term);
            let by_id = index.sorted_access_by_id(id);
            assert_eq!(by_name, by_id);
            assert!(!by_name.is_empty(), "every interned term has postings");
            for w in by_name.windows(2) {
                assert!(
                    w[0].score > w[1].score || (w[0].score == w[1].score && w[0].node < w[1].node),
                    "postings of {term:?} must be sorted by (score desc, node asc)"
                );
            }
            // Precomputed scores agree with the on-demand scoring formula.
            for scored in by_name {
                let query = FullTextQuery::Keywords(vec![term.to_string()]);
                let direct = index.score(&query, scored.node).unwrap();
                assert!((direct - scored.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dictionary_round_trips_through_the_index() {
        let (_, index) = sample();
        assert_eq!(index.term_dict().len(), index.term_count());
        for (id, term) in index.term_dict().terms() {
            assert_eq!(index.term_dict().get(term), Some(id));
            assert_eq!(index.term_dict().resolve(id), term);
        }
        assert!(index.term_dict().get("zzz-not-a-term").is_none());
    }

    #[test]
    fn node_side_table_reports_paths_and_lengths() {
        let (collection, index) = sample();
        let hits = index.search("china");
        assert_eq!(hits.len(), 1);
        let (path, len) = index.node_entry(hits[0].node).unwrap();
        assert_eq!(
            collection.path_string(path),
            "/country/economy/import_partners/item/trade_country"
        );
        assert_eq!(len, 1, "\"China\" tokenises to one token");
        assert_eq!(index.node_path(hits[0].node), Some(path));
        assert!(index.node_entry(NodeId::new(DocId(9), 9)).is_none());
    }

    #[test]
    fn evaluate_into_reuses_buffers() {
        let (_, index) = sample();
        let mut candidates = Vec::new();
        let mut out = Vec::new();
        for query in [
            FullTextQuery::phrase("united states"),
            FullTextQuery::keywords("china"),
            FullTextQuery::Any,
            FullTextQuery::parse("china OR canada").unwrap(),
        ] {
            index.evaluate_into(&query, None, &mut candidates, &mut out);
            assert_eq!(out, index.evaluate(&query), "buffered evaluate diverged for {query:?}");
        }
    }

    #[test]
    fn match_all_returns_every_indexed_node() {
        let (_, index) = sample();
        let all = index.evaluate(&FullTextQuery::Any);
        assert_eq!(all.len(), index.indexed_node_count());
    }

    #[test]
    fn path_filtering_restricts_results() {
        let (collection, index) = sample();
        let name_path = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        let results =
            index.evaluate_in_paths(&FullTextQuery::phrase("united states"), &[name_path]);
        assert_eq!(results.len(), 1);
        assert_eq!(collection.context_string(results[0].node).unwrap(), "/country/name");
    }

    #[test]
    fn single_term_path_filtering_uses_the_fast_path() {
        let (collection, index) = sample();
        let name_path = collection.paths().get_str(collection.symbols(), "/country/name").unwrap();
        // Single-keyword queries take the borrowed fast path; path filtering
        // must still apply.
        let results = index.evaluate_in_paths(&FullTextQuery::keywords("united"), &[name_path]);
        assert_eq!(results.len(), 1);
        assert_eq!(collection.context_string(results[0].node).unwrap(), "/country/name");
    }

    /// One query per arm of `evaluate_into`: one positive term, match-all,
    /// pure negation, and the scored rest.
    fn one_query_per_arm() -> [FullTextQuery; 4] {
        [
            FullTextQuery::keywords("united"),
            FullTextQuery::Any,
            FullTextQuery::parse("NOT mexico").unwrap(),
            FullTextQuery::phrase("united states"),
        ]
    }

    #[test]
    fn an_empty_allowed_set_matches_nothing_and_gathers_no_candidates() {
        // `(pricee, *)`: a tag that resolves to no path used to have every
        // indexed node gathered and scored before nothing was returned.
        let (_, index) = sample();
        let stale = NodeId::new(DocId(0), 0);
        let mut candidates = vec![stale];
        let mut out = vec![ScoredNode { node: stale, score: 1.0 }];
        for query in one_query_per_arm() {
            index.evaluate_into(&query, Some(&[]), &mut candidates, &mut out);
            assert!(out.is_empty() && candidates.is_empty(), "{query}: {candidates:?}");
        }
    }

    #[test]
    fn repeated_unsorted_and_unknown_allowed_paths_change_nothing() {
        let (collection, index) = sample();
        let path = |p: &str| collection.paths().get_str(collection.symbols(), p).unwrap();
        let (name, year) = (path("/country/name"), path("/country/year"));
        let textless = path("/country");
        let beyond = PathId(collection.paths().len() as u32);
        let messy = [year, PathId(u32::MAX), name, textless, year, beyond, name];
        for query in one_query_per_arm() {
            let expected: Vec<ScoredNode> = index
                .evaluate(&query)
                .into_iter()
                .filter(|hit| [name, year].contains(&index.node_path(hit.node).unwrap()))
                .collect();
            assert!(!expected.is_empty(), "{query} must match under /country/name|year");
            assert_eq!(index.evaluate_in_paths(&query, &messy), expected, "{query}");
        }
    }

    #[test]
    fn path_tables_stay_inside_their_byte_budget() {
        let (_, index) = sample();
        let bytes = index.read_model_bytes();
        let path_ids = index.path_run_offsets.len() - 1;
        let budget =
            16 * index.indexed_node_count() + 4 * index.sorted_postings.len() + 4 * (path_ids + 1);
        assert!(
            bytes.posting_paths + bytes.path_runs <= budget,
            "{bytes:?} over the budget of {budget} bytes"
        );
        for part in [bytes.dictionary, bytes.posting_arena, bytes.side_tables] {
            assert!(part > 0 && part < bytes.total(), "{bytes:?}");
        }
    }

    #[test]
    fn numeric_content_is_searchable() {
        let (collection, index) = sample();
        let hits = index.search("16.9");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            collection.context_string(hits[0].node).unwrap(),
            "/country/economy/import_partners/item/percentage"
        );
    }

    #[test]
    fn boolean_query_evaluation() {
        let (_, index) = sample();
        let q = FullTextQuery::parse("china OR canada").unwrap();
        assert_eq!(index.evaluate(&q).len(), 2);
        let q = FullTextQuery::parse("\"united states\" AND NOT mexico").unwrap();
        assert_eq!(index.evaluate(&q).len(), 2, "negation applies to node content, not documents");
    }

    #[test]
    fn merged_shards_equal_sequential_build() {
        let (collection, sequential) = sample();
        let shards: Vec<NodeIndexShard> =
            collection.documents().map(NodeIndex::build_shard).collect();
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.doc().is_some()));
        let merged = NodeIndex::merge(shards);
        assert_eq!(merged, sequential);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let (collection, sequential) = sample();
        let mut shards: Vec<NodeIndexShard> =
            collection.documents().map(NodeIndex::build_shard).collect();
        shards.reverse();
        assert_eq!(NodeIndex::merge(shards), sequential);
    }

    #[test]
    fn merge_of_no_shards_is_empty() {
        let merged = NodeIndex::merge(Vec::new());
        assert_eq!(merged.indexed_node_count(), 0);
        assert_eq!(merged.term_count(), 0);
        assert!(merged.term_dict().is_empty());
        assert!(merged.evaluate(&FullTextQuery::Any).is_empty());
    }

    #[test]
    fn term_statistics() {
        let (_, index) = sample();
        assert!(index.term_count() > 10);
        assert_eq!(index.document_frequency("china"), 1);
        assert_eq!(index.document_frequency("united"), 2);
        assert_eq!(index.document_frequency("missing"), 0);
    }
}
