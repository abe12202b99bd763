//! Inverted index over node content.
//!
//! This is the index the top-k search unit (Sec. 4) reads: for every node that
//! carries text, the index stores a posting per term, scored by term
//! frequency.  It supports the two access paths the Threshold Algorithm needs:
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
//! # One representation
//!
//! The index *is* its read model: every table it holds is one a query reads,
//! and [`NodeIndex::read_model_bytes`] states the bytes of each.
//!
//! * terms are interned into a [`TermDict`] and per-term posting lists live
//!   in one CSR arena **pre-sorted by descending content score** (idf folded
//!   in), with a parallel array holding each posting's context path;
//! * the match-all list `(tag, *)` is stored **partitioned by context path**:
//!   a second CSR, keyed by [`PathId`], whose per-path runs hold every indexed
//!   node of that path with its match-all score, pre-sorted the same way;
//! * a dense node side table (slot → node, slot → context path) serves path
//!   lookups;
//! * the **token arena**, a third CSR, holds every indexed node's tokens as
//!   [`TermId`]s in text order (4 B a token, no string per occurrence).  It
//!   is what random access ([`NodeIndex::score`]) and the phrase, negation
//!   and multi-keyword checks of [`NodeIndex::evaluate_into`] read — the
//!   node's ids resolved to the dictionary's strings and handed to
//!   [`FullTextQuery::matches_tokens`] — and a node's token count (length
//!   normalisation) is the difference of two of its offsets.
//!
//! [`NodeIndex::sorted_access`] therefore returns a borrowed slice, and
//! [`NodeIndex::evaluate_into`] costs what it returns: a single-term or
//! match-all query is a filtered copy of pre-sorted entries, and only a
//! phrase, multi-keyword or boolean query scores its candidates (the union of
//! its positive terms' postings) and sorts them.  No query walks every
//! indexed node unless it is itself unrestricted.
//!
//! # Build
//!
//! A [`NodeIndexShard`] carries one document's indexed nodes as flat vectors
//! in document order — node id, context path, tokens — with no map and
//! nothing allocated per posting; tokenising is all a shard does, and it is
//! the part of the build that parallelises.  [`NodeIndex::merge`] interns the
//! shards' tokens (ids are lexicographic ranks) straight into the token
//! arena, derives one `(term, node, tf)` entry per distinct term of each node
//! from it and counting-sorts those into the posting arena.  The only hash
//! map of the build is merge's interning table; the only one the index owns
//! is inside its [`TermDict`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId, Document, NodeId, PathId};

use crate::dict::{TermDict, TermId};
use crate::query::FullTextQuery;
use crate::tokenize::terms;

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

/// Single-term content score of a node of `len` tokens holding the term `tf`
/// times: tf · idf / √len.
pub(crate) fn term_score(tf: usize, idf: f64, len: usize) -> f64 {
    (tf as f64) * idf / (len.max(1) as f64).sqrt()
}

/// Heap bytes held by a [`NodeIndex`], table by table (see
/// [`NodeIndex::read_model_bytes`]).
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
    /// Node side tables: slot → node, slot → path.
    pub side_tables: usize,
    /// Token arena: every node's tokens as term ids, and its per-slot CSR
    /// offsets.
    pub tokens: usize,
}

impl ReadModelBytes {
    /// Sum over all tables.
    pub fn total(&self) -> usize {
        self.dictionary
            + self.posting_arena
            + self.posting_paths
            + self.path_runs
            + self.side_tables
            + self.tokens
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Node → side-table slot without hashing, for the passes that look up every
/// posting or every indexed node (the audit).  Slots ascend by node id, so a
/// document's slots are one contiguous range and the node is found by binary
/// search inside it.
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
    /// CSR offsets into `slot_tokens`, length slots + 1.  A node's token
    /// count (length normalisation) is the difference of its two offsets.
    pub(crate) token_offsets: Vec<u32>,
    /// The token arena: every indexed node's tokens in text order, interned.
    pub(crate) slot_tokens: Vec<TermId>,
}

/// Partial node index over a single document, produced by
/// [`NodeIndex::build_shard`] and consumed by [`NodeIndex::merge`]: the
/// document's indexed nodes in document order, as flat parallel vectors.
///
/// Shards carry globally valid [`NodeId`]s and [`PathId`]s because documents
/// of a [`Collection`] share its symbol and path intern tables; only the
/// tokens are still text, interned at merge.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeIndexShard {
    doc: Option<DocId>,
    nodes: Vec<NodeId>,
    paths: Vec<PathId>,
    /// Per node, the end of its run in `tokens` (its start is the previous
    /// node's end).
    token_ends: Vec<u32>,
    tokens: Vec<String>,
}

impl NodeIndexShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of nodes with indexed content in this shard.
    pub fn indexed_node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl NodeIndex {
    /// Builds the index over every node of the collection that has direct
    /// text content (elements with text and attributes): one shard per
    /// document ([`NodeIndex::build_shard`]), merged ([`NodeIndex::merge`]).
    pub fn build(collection: &Collection) -> Self {
        Self::merge(collection.documents().map(Self::build_shard).collect())
    }

    /// Tokenises a single document (the per-shard phase of the shard → merge
    /// build lifecycle).
    pub fn build_shard(doc: &Document) -> NodeIndexShard {
        let mut shard = NodeIndexShard { doc: Some(doc.id), ..NodeIndexShard::default() };
        for (ordinal, node) in doc.iter() {
            let Some(text) = node.text.as_deref() else { continue };
            let mut tokens = terms(text);
            if tokens.is_empty() {
                continue;
            }
            shard.nodes.push(NodeId::new(doc.id, ordinal));
            shard.paths.push(node.path);
            shard.tokens.append(&mut tokens);
            shard.token_ends.push(shard.tokens.len() as u32);
        }
        shard
    }

    /// Merges per-document shards into the index (the merge phase of the
    /// shard → merge build lifecycle).
    ///
    /// Shards are merged in ascending document order regardless of the order
    /// they are passed in, so the result is deterministic and identical to
    /// the sequential [`NodeIndex::build`].
    pub fn merge(mut shards: Vec<NodeIndexShard>) -> Self {
        shards.sort_by_key(|s| s.doc);
        let slots: usize = shards.iter().map(|s| s.nodes.len()).sum();
        let token_total: usize = shards.iter().map(|s| s.tokens.len()).sum();

        // Side tables and token offsets: the shards' vectors end to end.
        // Shards ascend by document and a shard's nodes by ordinal, so slots
        // ascend by node id.
        let mut slot_nodes = Vec::with_capacity(slots);
        let mut slot_paths = Vec::with_capacity(slots);
        let mut token_offsets = Vec::with_capacity(slots + 1);
        token_offsets.push(0u32);
        for shard in &shards {
            let base = token_offsets[token_offsets.len() - 1];
            slot_nodes.extend_from_slice(&shard.nodes);
            slot_paths.extend_from_slice(&shard.paths);
            token_offsets.extend(shard.token_ends.iter().map(|&end| base + end));
        }

        // Intern every token in first-seen order, then renumber by rank so
        // ids are lexicographic whatever the document order.
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let mut slot_tokens: Vec<TermId> = Vec::with_capacity(token_total);
        for token in shards.iter().flat_map(|shard| &shard.tokens) {
            let next = distinct.len() as u32;
            let id = *first_seen.entry(token).or_insert_with(|| {
                distinct.push(token);
                next
            });
            slot_tokens.push(TermId(id));
        }
        let mut by_rank: Vec<u32> = (0..distinct.len() as u32).collect();
        by_rank.sort_unstable_by_key(|&id| distinct[id as usize]);
        let mut rank = vec![0u32; distinct.len()];
        for (r, &id) in by_rank.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        for id in &mut slot_tokens {
            *id = TermId(rank[id.index()]);
        }
        let dict = TermDict::from_sorted(by_rank.iter().map(|&id| distinct[id as usize]));

        // One (term, slot, tf) entry per distinct term of each node, in slot
        // order, and each term's document frequency.
        let mut entries: Vec<(TermId, u32, u32)> = Vec::with_capacity(token_total);
        let mut df = vec![0u32; dict.len()];
        let mut node_terms: Vec<TermId> = Vec::new();
        for (slot, bounds) in token_offsets.windows(2).enumerate() {
            node_terms.clear();
            node_terms.extend_from_slice(&slot_tokens[bounds[0] as usize..bounds[1] as usize]);
            node_terms.sort_unstable();
            for occurrences in node_terms.chunk_by(|a, b| a == b) {
                entries.push((occurrences[0], slot as u32, occurrences.len() as u32));
                df[occurrences[0].index()] += 1;
            }
        }
        let idf_by_term: Vec<f64> = df.iter().map(|&df| smoothed_idf(slots, df as usize)).collect();

        // Counting sort of the entries by term: slot order inside a term's
        // run is node order, then each run is sorted by (score desc, node
        // asc) with its posting's path carried along.
        let mut posting_offsets = Vec::with_capacity(dict.len() + 1);
        posting_offsets.push(0u32);
        for &df in &df {
            posting_offsets.push(posting_offsets[posting_offsets.len() - 1] + df);
        }
        let mut cursors = posting_offsets.clone();
        let placeholder = (ScoredNode { node: NodeId::new(DocId(0), 0), score: 0.0 }, PathId(0));
        let mut arena = vec![placeholder; entries.len()];
        for &(term, slot, tf) in &entries {
            let slot = slot as usize;
            let len = (token_offsets[slot + 1] - token_offsets[slot]) as usize;
            let score = term_score(tf as usize, idf_by_term[term.index()], len);
            let cursor = &mut cursors[term.index()];
            arena[*cursor as usize] =
                (ScoredNode { node: slot_nodes[slot], score }, slot_paths[slot]);
            *cursor += 1;
        }
        for bounds in posting_offsets.windows(2) {
            arena[bounds[0] as usize..bounds[1] as usize].sort_by(|a, b| ranked(&a.0, &b.0));
        }
        let (sorted_postings, posting_paths) = arena.into_iter().unzip();

        let (path_run_offsets, path_runs) = path_runs(&slot_nodes, &slot_paths, &token_offsets);
        NodeIndex {
            dict,
            idf_by_term,
            posting_offsets,
            sorted_postings,
            posting_paths,
            path_run_offsets,
            path_runs,
            slot_nodes,
            slot_paths,
            token_offsets,
            slot_tokens,
        }
    }

    /// Number of nodes with indexed content.
    pub fn indexed_node_count(&self) -> usize {
        self.slot_nodes.len()
    }

    /// Number of distinct terms in the index.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// The interned term dictionary of the read model.
    pub fn term_dict(&self) -> &TermDict {
        &self.dict
    }

    /// Document frequency of a term (number of nodes containing it).
    pub fn document_frequency(&self, term: &str) -> usize {
        self.dict.get(term).map_or(0, |id| self.term_range(id).len())
    }

    /// Inverse document frequency with the usual smoothing: the precomputed
    /// table for an indexed term, the formula at df = 0 for any other.
    pub fn idf(&self, term: &str) -> f64 {
        match self.dict.get(term) {
            Some(id) => self.idf_by_term[id.index()],
            None => smoothed_idf(self.indexed_node_count(), 0),
        }
    }

    /// The context path of an indexed node.
    pub fn node_path(&self, node: NodeId) -> Option<PathId> {
        self.slot_of(node).map(|slot| self.slot_paths[slot])
    }

    /// The side table entry of an indexed node: its context path and token
    /// count (the inputs of path filtering and length normalisation), or
    /// `None` for nodes without indexed content.
    pub fn node_entry(&self, node: NodeId) -> Option<(PathId, u32)> {
        let slot = self.slot_of(node)?;
        Some((self.slot_paths[slot], self.tokens_of(slot).len() as u32))
    }

    /// The tokenised direct text of an indexed node, in text order.
    pub fn node_tokens(&self, node: NodeId) -> Option<Vec<&str>> {
        let slot = self.slot_of(node)?;
        let mut tokens = Vec::new();
        self.resolve_tokens(slot, &mut tokens);
        Some(tokens)
    }

    /// The side-table slot of an indexed node.
    fn slot_of(&self, node: NodeId) -> Option<usize> {
        self.slot_nodes.binary_search(&node).ok()
    }

    /// One slot's run of the token arena.
    pub(crate) fn tokens_of(&self, slot: usize) -> &[TermId] {
        &self.slot_tokens[self.token_offsets[slot] as usize..self.token_offsets[slot + 1] as usize]
    }

    /// Refills `out` with the dictionary strings of one slot's tokens — the
    /// form [`FullTextQuery::matches_tokens`] reads.
    fn resolve_tokens<'a>(&'a self, slot: usize, out: &mut Vec<&'a str>) {
        out.clear();
        out.extend(self.tokens_of(slot).iter().map(|&id| self.dict.resolve(id)));
    }

    /// Whether the node of `slot` satisfies `query`; `tokens` is a scratch
    /// buffer.
    fn matches<'a>(
        &'a self,
        query: &FullTextQuery,
        slot: usize,
        tokens: &mut Vec<&'a str>,
    ) -> bool {
        self.resolve_tokens(slot, tokens);
        query.matches_tokens(tokens)
    }

    /// Content score of `query` for `node`, or `None` when the node does not
    /// satisfy the query (random access for the Threshold Algorithm).
    pub fn score(&self, query: &FullTextQuery, node: NodeId) -> Option<f64> {
        let slot = self.slot_of(node)?;
        if !self.matches(query, slot, &mut Vec::new()) {
            return None;
        }
        Some(self.score_slot(&self.positive_ids(query), slot))
    }

    /// The query's positive terms (sorted, deduplicated) as dictionary ids;
    /// `None` stands for a term no node holds.
    fn positive_ids(&self, query: &FullTextQuery) -> Vec<Option<TermId>> {
        query.positive_terms().iter().map(|term| self.dict.get(term)).collect()
    }

    /// Content score of a slot that satisfies a query whose positive terms
    /// are `positive`: the sum of their length-normalised tf-idf scores, or
    /// the match-all score when there is none.
    fn score_slot(&self, positive: &[Option<TermId>], slot: usize) -> f64 {
        let tokens = self.tokens_of(slot);
        if positive.is_empty() {
            return match_all_score(tokens.len());
        }
        // A term the node does not hold adds 0.0 — as `term_score` of tf 0.
        positive
            .iter()
            .map(|term| {
                term.map_or(0.0, |id| {
                    let tf = tokens.iter().filter(|&&token| token == id).count();
                    term_score(tf, self.idf_by_term[id.index()], tokens.len())
                })
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

        let positive = self.positive_ids(query);
        if positive.is_empty() {
            // Only a negation can reject a node here; `*` takes whole runs.
            let verify = !query.is_match_all();
            let mut runs = 0;
            let mut tokens = Vec::new();
            let mut take = |run: &[ScoredNode]| {
                runs += usize::from(!run.is_empty());
                if verify {
                    out.extend(run.iter().filter(|s| {
                        let slot = self
                            .slot_of(s.node)
                            .expect("invariant: every run entry is an indexed node (path-runs)");
                        self.matches(query, slot, &mut tokens)
                    }));
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

        for &id in positive.iter().flatten() {
            match allowed {
                None => candidates.extend(self.sorted_access_by_id(id).iter().map(|s| s.node)),
                Some(paths) => candidates.extend(self.postings_on(id, paths).map(|s| s.node)),
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut tokens = Vec::new();
        for &node in candidates.iter() {
            let slot = self
                .slot_of(node)
                .expect("invariant: every posting's node has a slot (node-side-table)");
            if self.matches(query, slot, &mut tokens) {
                out.push(ScoredNode { node, score: self.score_slot(&positive, slot) });
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

    /// Heap bytes of the index, table by table — every table is one a query
    /// reads, and together they are the index's whole heap.
    ///
    /// Vectors count their capacity exactly; the dictionary's hash table is
    /// estimated as one entry plus one control byte per slot of capacity.
    ///
    /// # Budgets
    ///
    /// [`ReadModelBytes::posting_paths`] is 4 B per posting and
    /// [`ReadModelBytes::path_runs`] 16 B per indexed node plus one 4 B offset
    /// per path id — `16 · nodes + 4 · postings + 4 · (path ids + 1)` bytes;
    /// [`ReadModelBytes::tokens`] is 4 B per token occurrence plus one 4 B
    /// offset per indexed node — `4 · tokens + 4 · (nodes + 1)` bytes.  Both
    /// are asserted by this module's tests.  At the benchmark's paper scale:
    ///
    /// | workload | path tables | token arena | whole index |
    /// |---|---|---|---|
    /// | googlebase-flat (150,000 nodes, 184,534 postings) | 3.1 MB | 1.3 MB | 12.6 MB |
    /// | recipeml-ingest | 4.7 MB | 2.2 MB | 15.2 MB |
    /// | factbook-olap | 1.6 MB | 0.7 MB | 6.0 MB |
    /// | mondial-links | 0.7 MB | 0.3 MB | 3.9 MB |
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
            side_tables: vec_bytes(&self.slot_nodes) + vec_bytes(&self.slot_paths),
            tokens: vec_bytes(&self.slot_tokens) + vec_bytes(&self.token_offsets),
        }
    }

    /// Convenience wrapper: evaluate a keyword string.
    pub fn search(&self, keywords: &str) -> Vec<ScoredNode> {
        self.evaluate(&FullTextQuery::Keywords(terms(keywords)))
    }
}

/// Partitions the indexed nodes by context path: a counting sort of the
/// slots by path id (the returned CSR offsets, indexed by `PathId`), then a
/// sort of each run by (score desc, node asc).  Slots ascend by node id, so a
/// run comes out of the counting sort in node order: one whose nodes all have
/// one length is already sorted, and its sort is a single pass.
fn path_runs(
    slot_nodes: &[NodeId],
    slot_paths: &[PathId],
    token_offsets: &[u32],
) -> (Vec<u32>, Vec<ScoredNode>) {
    let path_slots = slot_paths.iter().map(|path| path.index() + 1).max().unwrap_or(0);
    let mut offsets = vec![0u32; path_slots + 1];
    for path in slot_paths {
        offsets[path.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursors = offsets.clone();
    let placeholder = ScoredNode { node: NodeId::new(DocId(0), 0), score: 0.0 };
    let mut runs = vec![placeholder; slot_nodes.len()];
    for (slot, &node) in slot_nodes.iter().enumerate() {
        let cursor = &mut cursors[slot_paths[slot].index()];
        let len = (token_offsets[slot + 1] - token_offsets[slot]) as usize;
        runs[*cursor as usize] = ScoredNode { node, score: match_all_score(len) };
        *cursor += 1;
    }
    for bounds in offsets.windows(2) {
        runs[bounds[0] as usize..bounds[1] as usize].sort_by(ranked);
    }
    (offsets, runs)
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
        let nodes = index.indexed_node_count();
        let budget = 16 * nodes + 4 * index.sorted_postings.len() + 4 * (path_ids + 1);
        assert!(
            bytes.posting_paths + bytes.path_runs <= budget,
            "{bytes:?} over the budget of {budget} bytes"
        );
        let arena_budget = 4 * index.slot_tokens.len() + 4 * (nodes + 1);
        assert!(bytes.tokens <= arena_budget, "{bytes:?} over the budget of {arena_budget} bytes");
        for part in [bytes.dictionary, bytes.posting_arena, bytes.side_tables, bytes.tokens] {
            assert!(part > 0 && part < bytes.total(), "{bytes:?}");
        }
    }

    #[test]
    fn the_byte_total_accounts_for_every_field_that_owns_heap() {
        let (_, index) = sample();
        let bytes = index.read_model_bytes();
        // No `..`: a field added to the index must be added here, and so to
        // `read_model_bytes`.
        let NodeIndex {
            dict: _, // counted as `bytes.dictionary`, with `idf_by_term`
            idf_by_term,
            posting_offsets,
            sorted_postings,
            posting_paths,
            path_run_offsets,
            path_runs,
            slot_nodes,
            slot_paths,
            token_offsets,
            slot_tokens,
        } = &index;
        let vectors = vec_bytes(posting_offsets)
            + vec_bytes(sorted_postings)
            + vec_bytes(posting_paths)
            + vec_bytes(path_run_offsets)
            + vec_bytes(path_runs)
            + vec_bytes(slot_nodes)
            + vec_bytes(slot_paths)
            + vec_bytes(token_offsets)
            + vec_bytes(slot_tokens);
        assert_eq!(bytes.total(), bytes.dictionary + vectors);
        assert!(bytes.dictionary > vec_bytes(idf_by_term));
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
    fn merge_order_does_not_matter() {
        let (collection, sequential) = sample();
        let mut shards: Vec<NodeIndexShard> =
            collection.documents().map(NodeIndex::build_shard).collect();
        assert!(shards.iter().all(|s| s.doc().is_some() && s.indexed_node_count() > 0));
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
