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
//! it stores no node, path or score a second time, and
//! [`NodeIndex::read_model_bytes`] states the bytes of each.
//!
//! * a dense node **side table** numbers the indexed nodes by *slot*, in
//!   ascending node order: slot → node, slot → context path;
//! * the **token arena**, a CSR keyed by slot, holds every indexed node's
//!   tokens as [`TermId`]s in text order (4 B a token, no string per
//!   occurrence).  It is what random access ([`NodeIndex::score`]) and the
//!   phrase, negation and multi-keyword checks of [`NodeIndex::evaluate_into`]
//!   read — the node's ids resolved to the dictionary's strings and handed
//!   to [`FullTextQuery::matches_tokens`] — and a node's token count (length
//!   normalisation) is the difference of two of its offsets;
//! * terms are interned into a [`TermDict`], one sorted byte arena with an
//!   offset a term, and a term's idf is smoothed from its posting list's
//!   length;
//! * the **posting lists**, a CSR keyed by [`TermId`], hold slots
//!   **pre-sorted by descending content score** `tf · idf / √len`.  A
//!   posting's node and path are its slot's.  A list is cut into *score
//!   segments*, runs of one score, and stores each distinct score once
//!   (12 B a segment); the build computed it from the slot's tokens, so
//!   recomputing it gives the same bits (the audit does);
//! * the match-all list `(tag, *)` is stored **partitioned by context path**:
//!   a second CSR of slots, keyed by [`PathId`], whose per-path runs hold
//!   every indexed node of that path, pre-sorted by its match-all score
//!   `1/√len` and cut into segments the same way;
//! * the **term → paths table**, a CSR keyed by [`TermId`], holds each
//!   term's distinct context paths in ascending order: the text side of the
//!   context index of Fig. 8 ([`crate::ContextIndex`] reads it instead of
//!   tokenising the text again), and the test that lets a term filtered by
//!   paths skip the per-posting path check.
//!
//! Sorted access is therefore a walk over a borrowed run of slots, and
//! [`NodeIndex::evaluate_into`] costs what it returns: a single-term or
//! match-all query is a (filtered) pass over pre-sorted slots that looks up
//! each one's node, and only a phrase, multi-keyword or boolean query scores
//! its candidates (the union of its positive terms' postings) and sorts
//! them.  No query walks every indexed node unless it is itself
//! unrestricted.  Scores are segmented rather than recomputed at read time:
//! recomputing each posting's `tf` and `√len` from the token arena made the
//! googlebase-flat explore round's term lists ≈ 4× dearer and its
//! `explore_ms` ≈ 50% higher, while the segments cost 0.39 MB there.
//!
//! # Build
//!
//! [`NodeIndex::build`] is one pass over the collection in document order.
//! It tokenises each text node with the tokenizer visitor
//! (`for_each_term`), which lends every token from one reused buffer, and
//! interns the token as it reads it: a
//! `String` is made only for a term's first occurrence, so the only strings
//! the build holds are one per distinct term, in its one hash map.  The pass
//! fills the token arena and the side tables directly.
//! Term ids are then renumbered to lexicographic ranks, and the hash map's
//! terms are copied once, in rank order, into the dictionary's arena.  Two
//! walks over the token arena, with a last-slot stamp per term, count each
//! term's postings and then counting-sort the slots straight into the
//! posting arena; each term's list is then sorted by its scores, computed
//! from the slots' tokens into one reused buffer, and cut into segments.  The
//! match-all runs are a counting sort of the slots by path, sorted and cut
//! the same way.  Each term's distinct paths are read off its postings'
//! side-table paths with a last-term stamp per path.  The index owns no hash
//! map.

use std::cmp::Ordering;
use std::mem::size_of;
use std::ops::Range;

use seda_xmlstore::{Collection, NodeId, PathId};

use crate::dict::{csr_row, FirstSeen, TermDict, TermId};
use crate::query::FullTextQuery;
use crate::tokenize::for_each_term;

/// A node matched by a query, with its content score.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Term dictionary: the sorted term arena and its per-term offsets.
    pub dictionary: usize,
    /// Posting arena (one slot a posting), its per-term CSR offsets and its
    /// score segments.
    pub posting_arena: usize,
    /// Path-partitioned match-all runs (one slot an indexed node), their
    /// per-path CSR offsets and their score segments.
    pub path_runs: usize,
    /// Node side tables: slot → node, slot → path.
    pub side_tables: usize,
    /// Token arena: every node's tokens as term ids, and its per-slot CSR
    /// offsets.
    pub tokens: usize,
    /// Term → distinct context paths, and its per-term CSR offsets.
    pub term_paths: usize,
}

impl ReadModelBytes {
    /// Sum over all tables.
    pub fn total(&self) -> usize {
        self.dictionary
            + self.posting_arena
            + self.path_runs
            + self.side_tables
            + self.tokens
            + self.term_paths
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Lists of slots under a CSR key — a term's postings, or a path's match-all
/// run — each in (score desc, node asc) order and cut into *segments* of one
/// score: a list stores each distinct score once, not once an entry.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct ScoredSlots {
    /// CSR offsets into `slots`: one a key, plus one.
    pub(crate) offsets: Vec<u32>,
    /// Every list's slots.
    pub(crate) slots: Vec<u32>,
    /// Where each segment ends in `slots`, strictly ascending, the last at
    /// `slots.len()`; every list starts a segment.
    pub(crate) segment_ends: Vec<u32>,
    /// The score of each segment's slots, strictly descending within a list.
    pub(crate) segment_scores: Vec<f64>,
}

impl ScoredSlots {
    /// Sorts each list of `slots` — given under `offsets` in slot order — by
    /// (score desc, node asc) of `score(key, slot)` and cuts it into
    /// segments.  Slots ascend by node id, so a sort by (score desc, slot
    /// asc) is the list's order.
    fn sorted(offsets: Vec<u32>, mut slots: Vec<u32>, score: impl Fn(usize, u32) -> f64) -> Self {
        let (mut segment_ends, mut segment_scores) = (Vec::new(), Vec::new());
        let mut keyed: Vec<(f64, u32)> = Vec::new();
        for key in 0..offsets.len().saturating_sub(1) {
            let list = &mut slots[offsets[key] as usize..offsets[key + 1] as usize];
            keyed.clear();
            keyed.extend(list.iter().map(|&slot| (score(key, slot), slot)));
            keyed.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then(a.1.cmp(&b.1))
            });
            let mut end = offsets[key];
            for segment in keyed.chunk_by(|a, b| a.0.to_bits() == b.0.to_bits()) {
                end += segment.len() as u32;
                segment_ends.push(end);
                segment_scores.push(segment[0].0);
            }
            for (slot, &(_, sorted)) in list.iter_mut().zip(&keyed) {
                *slot = sorted;
            }
        }
        segment_ends.shrink_to_fit();
        segment_scores.shrink_to_fit();
        ScoredSlots { offsets, slots, segment_ends, segment_scores }
    }

    /// The range of one key's list in `slots`; empty for a key beyond the
    /// table.
    pub(crate) fn range(&self, key: usize) -> Range<usize> {
        match self.offsets.get(key..) {
            Some([start, end, ..]) => *start as usize..*end as usize,
            _ => 0..0,
        }
    }

    /// The segments of the list at `range` (a key's range), in order: each
    /// one's score and slots.
    pub(crate) fn segments(&self, range: Range<usize>) -> impl Iterator<Item = (f64, &[u32])> {
        let first = self.segment_ends.partition_point(|&end| end as usize <= range.start);
        let mut start = range.start;
        let ends = self.segment_ends[first..].iter().zip(&self.segment_scores[first..]);
        ends.map_while(move |(&end, &score)| {
            let end = (end as usize).min(range.end);
            let segment = self.slots.get(start..end).filter(|slots| !slots.is_empty())?;
            start = end;
            Some((score, segment))
        })
    }

    /// Heap bytes: 4 B a slot, 4 B an offset, 12 B a segment.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.offsets)
            + vec_bytes(&self.slots)
            + vec_bytes(&self.segment_ends)
            + vec_bytes(&self.segment_scores)
    }
}

/// Inverted full-text index over the direct text content of nodes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NodeIndex {
    /// Term intern table; ids are lexicographic ranks, so deterministic.
    pub(crate) dict: TermDict,
    /// Per-term postings as side-table slots, keyed by [`TermId`], scored
    /// `tf · idf / √len`.  A term's list length is its document frequency.
    pub(crate) postings: ScoredSlots,
    /// The match-all list partitioned by context path, keyed by [`PathId`]:
    /// every slot once, in its own path's run, scored `1/√len`.  There is one
    /// key a path id up to the largest indexed one.
    pub(crate) path_runs: ScoredSlots,
    /// Slot → node id: every indexed node once, in ascending `NodeId` order.
    pub(crate) slot_nodes: Vec<NodeId>,
    /// Slot → context path (side table for path filtering).
    pub(crate) slot_paths: Vec<PathId>,
    /// CSR offsets into `slot_tokens`, length slots + 1.  A node's token
    /// count (length normalisation) is the difference of its two offsets.
    pub(crate) token_offsets: Vec<u32>,
    /// The token arena: every indexed node's tokens in text order, interned.
    pub(crate) slot_tokens: Vec<TermId>,
    /// CSR offsets into `term_paths`, length `dict.len() + 1`.
    pub(crate) term_path_offsets: Vec<u32>,
    /// Each term's distinct context paths (those of its postings), strictly
    /// ascending.
    pub(crate) term_paths: Vec<PathId>,
}

impl NodeIndex {
    /// Builds the index over every node of the collection that has direct
    /// text content (elements with text and attributes), in one pass in
    /// document order.
    ///
    /// Each token is lent by the tokenizer visitor (`for_each_term`) and
    /// interned as it is read: it is looked up by `&str`, and a `String` is allocated only for a
    /// term seen for the first time, so the build holds one string per
    /// distinct term, never one per occurrence.  Ids are then renumbered by
    /// rank, so they are lexicographic whatever the document order.
    pub fn build(collection: &Collection) -> Self {
        let mut first_seen = FirstSeen::default();
        let mut slot_nodes = Vec::new();
        let mut slot_paths = Vec::new();
        let mut token_offsets = vec![0u32];
        let mut slot_tokens: Vec<TermId> = Vec::new();
        let mut buf = String::new();
        // Documents ascend by id and a document's nodes by ordinal, so slots
        // ascend by node id.
        for doc in collection.documents() {
            for (ordinal, node) in doc.iter() {
                let Some(text) = node.text.as_deref() else { continue };
                let before = slot_tokens.len();
                for_each_term(text, &mut buf, |token| {
                    slot_tokens.push(TermId(first_seen.id(token)));
                });
                if slot_tokens.len() == before {
                    continue;
                }
                slot_nodes.push(NodeId::new(doc.id, ordinal));
                slot_paths.push(node.path);
                token_offsets.push(slot_tokens.len() as u32);
            }
        }
        // The pass grew these tables by doubling: trim them to what the
        // index reads (and `read_model_bytes` reports).
        slot_nodes.shrink_to_fit();
        slot_paths.shrink_to_fit();
        token_offsets.shrink_to_fit();
        slot_tokens.shrink_to_fit();

        let (dict, rank) = first_seen.into_ranked();
        for id in &mut slot_tokens {
            *id = TermId(rank[id.index()]);
        }
        drop(rank);

        let postings = postings(dict.len(), &token_offsets, &slot_tokens);
        let path_runs = path_runs(&slot_paths, &token_offsets);
        let (term_path_offsets, term_paths) =
            term_paths(&postings, &slot_paths, collection.paths().len());
        NodeIndex {
            dict,
            postings,
            path_runs,
            slot_nodes,
            slot_paths,
            token_offsets,
            slot_tokens,
            term_path_offsets,
            term_paths,
        }
    }

    /// Number of nodes with indexed content.
    pub fn indexed_node_count(&self) -> usize {
        self.slot_nodes.len()
    }

    /// The interned term dictionary of the read model.
    pub fn term_dict(&self) -> &TermDict {
        &self.dict
    }

    /// Document frequency of a term (number of nodes containing it).
    pub fn document_frequency(&self, term: &str) -> usize {
        self.dict.get(term).map_or(0, |id| self.term_range(id).len())
    }

    /// The context path of an indexed node.
    pub fn node_path(&self, node: NodeId) -> Option<PathId> {
        self.slot_of(node).map(|slot| self.slot_paths[slot])
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
        csr_row(&self.token_offsets, &self.slot_tokens, slot)
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

    /// Smoothed idf of a term: its posting list's length is its document
    /// frequency.
    pub(crate) fn idf(&self, id: TermId) -> f64 {
        smoothed_idf(self.slot_nodes.len(), self.term_range(id).len())
    }

    /// Content score of `query` for `node`, or `None` when the node does not
    /// satisfy the query (random access for the Threshold Algorithm).
    pub fn score(&self, query: &FullTextQuery, node: NodeId) -> Option<f64> {
        let slot = self.slot_of(node)?;
        if !self.matches(query, slot, &mut Vec::new()) {
            return None;
        }
        Some(self.score_slot(&self.positive_terms(query), slot))
    }

    /// The query's positive terms (sorted, deduplicated) as dictionary ids
    /// with their idf; `None` stands for a term no node holds.
    fn positive_terms(&self, query: &FullTextQuery) -> Vec<Option<(TermId, f64)>> {
        let known = |term: &String| self.dict.get(term).map(|id| (id, self.idf(id)));
        query.positive_terms().iter().map(known).collect()
    }

    /// Content score of a slot that satisfies a query whose positive terms
    /// are `positive`: the sum of their length-normalised tf-idf scores, or
    /// the match-all score when there is none.
    fn score_slot(&self, positive: &[Option<(TermId, f64)>], slot: usize) -> f64 {
        let tokens = self.tokens_of(slot);
        if positive.is_empty() {
            return match_all_score(tokens.len());
        }
        // A term the node does not hold adds 0.0 — as `term_score` of tf 0.
        positive
            .iter()
            .map(|term| {
                term.map_or(0.0, |(id, idf)| {
                    let tf = tokens.iter().filter(|&&token| token == id).count();
                    term_score(tf, idf, tokens.len())
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
    /// internal scratch buffer of side-table slots.  Both are cleared first.
    ///
    /// `allowed` restricts the matches to nodes on one of the given context
    /// paths; it may be in any order, repeat a path or name paths no indexed
    /// node has, and an empty slice matches nothing.  The cost follows the
    /// query's shape, never the size of the index:
    ///
    /// * **one positive term** (a keyword or a one-token phrase) — the term's
    ///   pre-sorted posting slots, each given its node and its segment's
    ///   score: one pass, no scoring, no sort.  With `allowed`, a term whose
    ///   paths (the term → paths table) all pass takes every posting, one
    ///   with none takes none, and only the rest filters each posting through
    ///   the side table's path;
    /// * **no positive term** (`*`, an empty bag, a pure negation) — the
    ///   pre-sorted runs of the allowed paths (all runs for `None`): one pass
    ///   for one path, plus one stable sort over the concatenated runs for
    ///   several; a negation also checks each run entry's tokens;
    /// * **anything else** (several keywords, a phrase, a boolean combination)
    ///   — the union of the positive terms' posting slots on allowed paths
    ///   (sorted and deduplicated: slot order is node order) is matched
    ///   against the slots' tokens, scored and sorted.  Candidates come
    ///   from positive postings only, so a disjunction with a negated branch
    ///   (`a OR NOT b`) returns just the nodes that hold one of its positive
    ///   terms.
    pub fn evaluate_into(
        &self,
        query: &FullTextQuery,
        allowed: Option<&[PathId]>,
        candidates: &mut Vec<u32>,
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
        let allows = |path: PathId| allowed.is_none_or(|paths| paths.binary_search(&path).is_ok());
        let slot_allowed = |slot: u32| allows(self.slot_paths[slot as usize]);

        if let Some(term) = query.single_positive_term() {
            let Some(id) = self.dict.get(term) else { return };
            // The term → paths table says whether every, no or some posting
            // lies on an allowed path: only the last checks each posting.
            let term_paths = csr_row(&self.term_path_offsets, &self.term_paths, id.index());
            let inside = term_paths.iter().filter(|&&path| allows(path)).count();
            let range = self.term_range(id);
            if inside == term_paths.len() {
                self.push_scored(&self.postings, range, |_| true, out);
            } else if inside > 0 {
                self.push_scored(&self.postings, range, slot_allowed, out);
            }
            return;
        }

        let positive = self.positive_terms(query);
        if positive.is_empty() {
            // Only a negation can reject a node here; `*` takes whole runs.
            let verify = !query.is_match_all();
            let mut runs = 0;
            let mut tokens = Vec::new();
            let mut take = |range: Range<usize>| {
                runs += usize::from(!range.is_empty());
                let keep = |slot: u32| !verify || self.matches(query, slot as usize, &mut tokens);
                self.push_scored(&self.path_runs, range, keep, out);
            };
            match allowed {
                Some(paths) => {
                    paths.iter().for_each(|&path| take(self.path_runs.range(path.index())))
                }
                None => (0..self.path_runs.offsets.len().saturating_sub(1))
                    .for_each(|path| take(self.path_runs.range(path))),
            }
            if runs > 1 {
                out.sort_by(ranked);
            }
            return;
        }

        for &(id, _) in positive.iter().flatten() {
            let kept =
                self.postings.slots[self.term_range(id)].iter().filter(|&&s| slot_allowed(s));
            candidates.extend(kept);
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut tokens = Vec::new();
        for &slot in candidates.iter() {
            let slot = slot as usize;
            if self.matches(query, slot, &mut tokens) {
                let node = self.slot_nodes[slot];
                out.push(ScoredNode { node, score: self.score_slot(&positive, slot) });
            }
        }
        out.sort_by(ranked);
    }

    /// Appends the entries of `range` of `list` that `keep` takes to `out`:
    /// each slot's node, with its segment's score.
    fn push_scored(
        &self,
        list: &ScoredSlots,
        range: Range<usize>,
        mut keep: impl FnMut(u32) -> bool,
        out: &mut Vec<ScoredNode>,
    ) {
        out.reserve(range.len());
        for (score, slots) in list.segments(range) {
            let kept = slots.iter().filter(|&&slot| keep(slot));
            out.extend(
                kept.map(|&slot| ScoredNode { node: self.slot_nodes[slot as usize], score }),
            );
        }
    }

    /// Sorted access for the Threshold Algorithm: the postings of a term
    /// ordered by descending single-term score.
    #[cfg(test)]
    pub(crate) fn sorted_access_by_id(&self, id: TermId) -> Vec<ScoredNode> {
        let mut out = Vec::new();
        self.push_scored(&self.postings, self.term_range(id), |_| true, &mut out);
        out
    }

    /// The distinct context paths of a term's postings, strictly ascending;
    /// empty for a term no node holds.
    pub(crate) fn term_paths_of(&self, term: &str) -> &[PathId] {
        let row = |id: TermId| csr_row(&self.term_path_offsets, &self.term_paths, id.index());
        self.dict.get(term).map_or(&[], row)
    }

    /// The paths some indexed node has — those with a non-empty match-all
    /// run — ascending.
    pub(crate) fn text_paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.path_runs
            .offsets
            .windows(2)
            .enumerate()
            .filter(|(_, bounds)| bounds[0] < bounds[1])
            .map(|(path, _)| PathId(path as u32))
    }

    /// One term's range of the posting arena.
    pub(crate) fn term_range(&self, id: TermId) -> Range<usize> {
        self.postings.range(id.index())
    }

    /// Heap bytes of the index, table by table — every table is one a query
    /// reads, and together they are the index's whole heap.  Vectors count
    /// their capacity exactly.
    ///
    /// # Budgets
    ///
    /// Every table is a flat array of 4 B entries (8 B for a slot's node)
    /// under 4 B CSR offsets, and nothing a query can derive from another
    /// table without reading the token arena is stored twice:
    ///
    /// * [`ReadModelBytes::dictionary`] — the sorted term bytes plus one
    ///   4 B offset a term, plus one;
    /// * [`ReadModelBytes::posting_arena`] — 4 B a posting (a slot), one
    ///   4 B offset a term, plus one, and 12 B a score segment (a distinct
    ///   score of a term's list);
    /// * [`ReadModelBytes::path_runs`] — 4 B an indexed node (a slot), one
    ///   4 B offset a path id, plus one, and 12 B a score segment (a distinct
    ///   length on a path);
    /// * [`ReadModelBytes::side_tables`] — 12 B an indexed node;
    /// * [`ReadModelBytes::tokens`] — 4 B a token occurrence plus one 4 B
    ///   offset an indexed node, plus one;
    /// * [`ReadModelBytes::term_paths`] — 4 B a distinct (term, path) pair
    ///   plus one 4 B offset a term, plus one.
    ///
    /// This module's tests assert each formula.  At the benchmark's paper
    /// scale (seed 21), in MB of 10⁶ bytes, before (the index that stored a
    /// 16 B node-and-score a posting and a match-all entry, a 4 B path a
    /// posting, an idf a term and a hashed dictionary holding each term
    /// twice) → now:
    ///
    /// | table | googlebase-flat | recipeml-ingest | factbook-olap | mondial-links |
    /// |---|---|---|---|---|
    /// | dictionary | 3.25 → 0.28 | 0.06 → 0.005 | 1.12 → 0.13 | 1.62 → 0.14 |
    /// | posting arena | 3.07 → 1.24 | 5.63 → 1.42 | 1.58 → 0.61 | 0.91 → 0.45 |
    /// | posting paths | 0.74 → — | 1.41 → — | 0.38 → — | 0.21 → — |
    /// | path runs | 2.40 → 0.61 | 3.33 → 0.83 | 1.26 → 0.35 | 0.46 → 0.12 |
    /// | side tables | 1.80 | 2.49 | 0.94 | 0.34 |
    /// | tokens | 1.34 | 2.24 | 0.70 | 0.33 |
    /// | term paths | 0.60 | 0.01 | 0.15 | 0.14 |
    /// | **total** | **13.20 → 5.88** | **15.17 → 6.99** | **6.13 → 2.88** | **4.00 → 1.52** |
    ///
    /// The budget is half the old total on googlebase-flat and recipeml-ingest:
    /// at most 6.3 MB and 7.2 MB.  `perf_smoke`'s index-build gate fails a
    /// paper-scale googlebase index above 6.3 MB.
    pub fn read_model_bytes(&self) -> ReadModelBytes {
        ReadModelBytes {
            dictionary: self.dict.heap_bytes(),
            posting_arena: self.postings.heap_bytes(),
            path_runs: self.path_runs.heap_bytes(),
            side_tables: vec_bytes(&self.slot_nodes) + vec_bytes(&self.slot_paths),
            tokens: vec_bytes(&self.slot_tokens) + vec_bytes(&self.token_offsets),
            term_paths: vec_bytes(&self.term_paths) + vec_bytes(&self.term_path_offsets),
        }
    }
}

/// The posting lists: each term's slots under a CSR over the dictionary.  Two
/// walks over the token arena with a last-slot stamp per term — the first
/// counts the nodes holding each term, the second places each slot at its
/// term's cursor, so a list comes out in slot order — then each list is
/// sorted by its scores, `tf` counted in each slot's token run.
fn postings(terms: usize, token_offsets: &[u32], slot_tokens: &[TermId]) -> ScoredSlots {
    let slots = token_offsets.len() - 1;
    let mut stamp = vec![u32::MAX; terms];
    let mut offsets = vec![0u32; terms + 1];
    for slot in 0..slots {
        for &id in csr_row(token_offsets, slot_tokens, slot) {
            if std::mem::replace(&mut stamp[id.index()], slot as u32) != slot as u32 {
                offsets[id.index() + 1] += 1;
            }
        }
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursors = offsets[..terms].to_vec();
    stamp.fill(u32::MAX);
    let mut postings = vec![0u32; offsets[terms] as usize];
    for slot in 0..slots {
        for &id in csr_row(token_offsets, slot_tokens, slot) {
            if std::mem::replace(&mut stamp[id.index()], slot as u32) != slot as u32 {
                postings[cursors[id.index()] as usize] = slot as u32;
                cursors[id.index()] += 1;
            }
        }
    }
    drop((stamp, cursors));
    let idfs: Vec<f64> =
        offsets.windows(2).map(|df| smoothed_idf(slots, (df[1] - df[0]) as usize)).collect();
    ScoredSlots::sorted(offsets, postings, |term, slot| {
        let tokens = csr_row(token_offsets, slot_tokens, slot as usize);
        let tf = tokens.iter().filter(|token| token.index() == term).count();
        term_score(tf, idfs[term], tokens.len())
    })
}

/// Partitions the slots by context path: a counting sort of the slots by
/// path id (the CSR offsets, keyed by `PathId`), then each run sorted by its
/// match-all scores.
fn path_runs(slot_paths: &[PathId], token_offsets: &[u32]) -> ScoredSlots {
    let path_slots = slot_paths.iter().map(|path| path.index() + 1).max().unwrap_or(0);
    let mut offsets = vec![0u32; path_slots + 1];
    for path in slot_paths {
        offsets[path.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursors = offsets.clone();
    let mut runs = vec![0u32; slot_paths.len()];
    for (slot, path) in slot_paths.iter().enumerate() {
        let cursor = &mut cursors[path.index()];
        runs[*cursor as usize] = slot as u32;
        *cursor += 1;
    }
    drop(cursors);
    let len =
        |slot: u32| (token_offsets[slot as usize + 1] - token_offsets[slot as usize]) as usize;
    ScoredSlots::sorted(offsets, runs, |_, slot| match_all_score(len(slot)))
}

/// Each term's distinct context paths, strictly ascending, as a CSR parallel
/// to the posting offsets: one walk over the postings' side-table paths,
/// `stamp[path]` holding the last term that took the path, then a sort of
/// each term's (short) run.
fn term_paths(
    postings: &ScoredSlots,
    slot_paths: &[PathId],
    path_ids: usize,
) -> (Vec<u32>, Vec<PathId>) {
    let mut stamp = vec![u32::MAX; path_ids];
    let terms = postings.offsets.len() - 1;
    let mut offsets = Vec::with_capacity(terms + 1);
    offsets.push(0u32);
    let mut paths: Vec<PathId> = Vec::new();
    for term in 0..terms {
        let start = paths.len();
        for &slot in &postings.slots[postings.range(term)] {
            let path = slot_paths[slot as usize];
            if std::mem::replace(&mut stamp[path.index()], term as u32) != term as u32 {
                paths.push(path);
            }
        }
        paths[start..].sort_unstable();
        offsets.push(paths.len() as u32);
    }
    paths.shrink_to_fit();
    (offsets, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::{parse_collection, DocId};

    /// A keyword string's matches (the query a user types).
    fn search(index: &NodeIndex, keywords: &str) -> Vec<ScoredNode> {
        index.evaluate(&FullTextQuery::keywords(keywords))
    }

    /// A term's postings in sorted-access order; empty for an unknown term.
    fn sorted_access(index: &NodeIndex, term: &str) -> Vec<ScoredNode> {
        index.term_dict().get(term).map_or(Vec::new(), |id| index.sorted_access_by_id(id))
    }

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
        assert_eq!(search(&index, "united states").len(), 2);
        assert_eq!(search(&index, "united kingdom").len(), 0);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let (_, index) = sample();
        // "china" occurs once; "country" does not occur in content at all;
        // "united" occurs twice. A node matching the rarer term should score
        // at least as high per-term.
        let idf = |term: &str| index.idf(index.dict.get(term).unwrap());
        assert!(idf("china") > idf("united"));
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
        let canada_hits = search(&index, "canada");
        assert_eq!(canada_hits.len(), 1);
        assert!(index.score(&query, canada_hits[0].node).is_none());
    }

    #[test]
    fn sorted_access_is_descending() {
        let (_, index) = sample();
        let postings = sorted_access(&index, "united");
        assert_eq!(postings.len(), 2);
        assert!(postings[0].score >= postings[1].score);
        assert!(sorted_access(&index, "nonexistent").is_empty());
    }

    #[test]
    fn sorted_access_scores_match_term_scores() {
        let (_, index) = sample();
        for (id, term) in index.term_dict().terms() {
            let by_name = sorted_access(&index, term);
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
            for scored in &by_name {
                let query = FullTextQuery::Keywords(vec![term.to_string()]);
                let direct = index.score(&query, scored.node).unwrap();
                assert!((direct - scored.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dictionary_round_trips_through_the_index() {
        let (_, index) = sample();
        for (id, term) in index.term_dict().terms() {
            assert_eq!(index.term_dict().get(term), Some(id));
            assert_eq!(index.term_dict().resolve(id), term);
        }
        assert!(index.term_dict().get("zzz-not-a-term").is_none());
    }

    #[test]
    fn node_side_table_reports_paths_and_lengths() {
        let (collection, index) = sample();
        let hits = search(&index, "china");
        assert_eq!(hits.len(), 1);
        let path = index.node_path(hits[0].node).unwrap();
        assert_eq!(
            collection.path_string(path),
            "/country/economy/import_partners/item/trade_country"
        );
        assert_eq!(index.node_tokens(hits[0].node).unwrap(), ["china"]);
        assert!(index.node_path(NodeId::new(DocId(9), 9)).is_none());
        assert!(index.node_tokens(NodeId::new(DocId(9), 9)).is_none());
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
            FullTextQuery::Or(
                Box::new(FullTextQuery::keywords("china")),
                Box::new(FullTextQuery::keywords("canada")),
            ),
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
            FullTextQuery::Not(Box::new(FullTextQuery::keywords("mexico"))),
            FullTextQuery::phrase("united states"),
        ]
    }

    #[test]
    fn an_empty_allowed_set_matches_nothing_and_gathers_no_candidates() {
        // `(pricee, *)`: a tag that resolves to no path used to have every
        // indexed node gathered and scored before nothing was returned.
        let (_, index) = sample();
        let stale = NodeId::new(DocId(0), 0);
        let mut candidates = vec![0];
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
    fn every_table_is_at_its_byte_formula() {
        let (_, index) = sample();
        let bytes = index.read_model_bytes();
        let (terms, nodes) = (index.dict.len(), index.indexed_node_count());
        let (postings, runs) = (&index.postings, &index.path_runs);
        let path_ids = runs.offsets.len() - 1;
        // The dictionary: its sorted term bytes plus one offset a term, plus one.
        let term_bytes: usize = index.dict.terms().map(|(_, term)| term.len()).sum();
        assert_eq!(bytes.dictionary, term_bytes + 4 * (terms + 1));
        // One 4 B slot a posting and 12 B a distinct score of a term's list:
        // no per-posting node, path or score.
        let scores = |list: &ScoredSlots, keys: usize| -> usize {
            (0..keys).map(|key| list.segments(list.range(key)).count()).sum()
        };
        let posting_count: usize = (0..terms).map(|term| postings.range(term).len()).sum();
        assert!(scores(postings, terms) < posting_count, "terms held by nodes of one shape");
        assert_eq!(
            bytes.posting_arena,
            4 * posting_count + 4 * (terms + 1) + 12 * scores(postings, terms)
        );
        // One 4 B slot an indexed node, and 12 B a distinct length on a path.
        assert!(scores(runs, path_ids) < nodes, "paths whose nodes have one length");
        assert_eq!(bytes.path_runs, 4 * nodes + 4 * (path_ids + 1) + 12 * scores(runs, path_ids));
        assert_eq!(bytes.side_tables, (size_of::<NodeId>() + 4) * nodes);
        assert_eq!(bytes.tokens, 4 * index.slot_tokens.len() + 4 * (nodes + 1));
        assert_eq!(bytes.term_paths, 4 * index.term_paths.len() + 4 * (terms + 1));
        for part in [
            bytes.dictionary,
            bytes.posting_arena,
            bytes.path_runs,
            bytes.side_tables,
            bytes.tokens,
            bytes.term_paths,
        ] {
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
            dict,
            postings,
            path_runs,
            slot_nodes,
            slot_paths,
            token_offsets,
            slot_tokens,
            term_path_offsets,
            term_paths,
        } = &index;
        let scored = |list: &ScoredSlots| {
            let ScoredSlots { offsets, slots, segment_ends, segment_scores } = list;
            vec_bytes(offsets)
                + vec_bytes(slots)
                + vec_bytes(segment_ends)
                + vec_bytes(segment_scores)
        };
        let vectors = vec_bytes(&dict.offsets)
            + dict.text.capacity()
            + scored(postings)
            + scored(path_runs)
            + vec_bytes(slot_nodes)
            + vec_bytes(slot_paths)
            + vec_bytes(token_offsets)
            + vec_bytes(slot_tokens)
            + vec_bytes(term_path_offsets)
            + vec_bytes(term_paths);
        assert_eq!(bytes.total(), vectors);
    }

    #[test]
    fn numeric_content_is_searchable() {
        let (collection, index) = sample();
        let hits = search(&index, "16.9");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            collection.context_string(hits[0].node).unwrap(),
            "/country/economy/import_partners/item/percentage"
        );
    }

    #[test]
    fn boolean_query_evaluation() {
        let (_, index) = sample();
        let q = FullTextQuery::Or(
            Box::new(FullTextQuery::keywords("china")),
            Box::new(FullTextQuery::keywords("canada")),
        );
        assert_eq!(index.evaluate(&q).len(), 2);
        let q = FullTextQuery::And(
            Box::new(FullTextQuery::phrase("united states")),
            Box::new(FullTextQuery::Not(Box::new(FullTextQuery::keywords("mexico")))),
        );
        assert_eq!(index.evaluate(&q).len(), 2, "negation applies to node content, not documents");
    }

    #[test]
    fn build_of_an_empty_collection_is_empty() {
        let index = NodeIndex::build(&Collection::new());
        assert_eq!(index.indexed_node_count(), 0);
        assert_eq!(index.term_dict().len(), 0);
        assert!(index.evaluate(&FullTextQuery::Any).is_empty());
    }

    #[test]
    fn term_statistics() {
        let (_, index) = sample();
        assert!(index.term_dict().len() > 10);
        assert_eq!(index.document_frequency("china"), 1);
        assert_eq!(index.document_frequency("united"), 2);
        assert_eq!(index.document_frequency("missing"), 0);
    }
}
