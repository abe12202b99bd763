//! The Threshold-Algorithm top-k search unit (Sec. 4).
//!
//! SEDA "employs a top-k search algorithm based on the family of threshold
//! algorithms (TA) [Fagin et al.]: it retrieves the results from full-text
//! indexes and calculates top answers according to a ranking function which
//! takes into account both the content score as well as the structural
//! properties of the matched nodes".
//!
//! The implementation is a rank-join-style TA:
//!
//! * each query term contributes one posting list sorted by descending
//!   content score (sorted access on the [`seda_textindex::NodeIndex`]);
//! * lists are consumed round-robin; every newly seen node is joined with the
//!   nodes already seen for the other terms, candidate tuples are checked for
//!   connectivity in the data graph and scored
//!   `Σ content + compactness`;
//! * the algorithm maintains the classic rank-join threshold
//!   `max_i ( frontier_i + Σ_{j≠i} best_j )` plus the maximal structural
//!   bonus, and stops as soon as `k` buffered tuples score at least the
//!   threshold — the early-termination property the paper relies on for
//!   interactive response times.
//!
//! # Component-partitioned join
//!
//! A tuple spanning two document components of the data graph can never be
//! connected, so before the loop starts the term lists are semi-joined on
//! [`DataGraph::doc_component`] (see `partition.rs`): a component is *live*
//! when every list has an entry in it, and every entry of a component that
//! is not live is dropped from its list, survivors keeping their order.  The
//! join then reads only entries that can meet: a selective search whose tied
//! score blocks never let the threshold stop it reads the documents where
//! all its terms meet, not whole lists.  Terms that share no component
//! answer empty without a sorted access.  Answers stay exact, since a
//! dropped entry is part of no connected tuple; the sorted and random access
//! counts, and so where an access budget stops a search, count live entries
//! only.
//!
//! The same pass groups each list's surviving positions by component (one
//! counting sort per list into a CSR arena), and a newly seen node is joined
//! only with the seen entries of its own component's group in each other
//! list — one lookup per list instead of a scan of the whole consumed prefix
//! with a component compare per pair.  Groups keep sorted-access order, so
//! the combinations come out in the order a filtered prefix scan would
//! produce them; on a single-component graph the one group *is* the prefix
//! (and nothing is dropped).  The partition costs one `u32` per surviving
//! entry plus `terms · (components + 2)` offsets, held in the
//! [`SearchScratch`] or, for prepared statements, computed once in
//! [`MaterializedTerms`] beside the semi-joined lists.  Either way it is
//! ready before the join runs.
//!
//! # Allocation discipline
//!
//! The join loop performs no per-candidate and no per-group allocation:
//! candidate tuples live in two flat ping-pong arenas (`m`-strided `NodeId`
//! runs plus a parallel score array), the component partition is two flat
//! arrays, and connectivity/compactness checks are label intersections
//! against the graph's precomputed connectivity oracle (probes counted
//! through a reusable [`TraversalScratch`]).  Every search takes the caller's
//! [`SearchScratch`]: hold one across queries and even the posting-list
//! buffers are reused; pass `&mut SearchScratch::new()` for a one-off.
//!
//! # Random access: one source, many partners
//!
//! Every tuple a sorted access forms holds the node just read, so scoring
//! them is one source asked about a batch of partners.  For pairs — where the
//! compactness *is* the distance — the join pins that node once a batch
//! holds eight pairs ([`seda_datagraph::pin`]: the core label of a hub
//! node's attachment scattered into the traversal scratch, 2 bytes a core
//! node) and scores each pair by one pass over the label of the partner's
//! attachment instead of merging both labels per pair; on the IDREF-webbed
//! Mondial corpus that is the difference between ≈ 16 and ≈ 6 ms a search.
//! A node of a tree document scatters nothing, and each of its pairs is the
//! parent walk the pairwise query takes.  Tuples of three and more nodes keep
//! the pairwise matrix (a handful of partners a group: pinning measured
//! slower).
//! A search over a prepared statement's materialised lists scores exactly as
//! a cold one.  The pinned arm's differential test is `tests/topk_equivalence.rs`:
//! [`TopKSearcher::search_naive`] scores every pair one-to-one through
//! `compactness_with` and must rank the same tuples with the same score bits.

use std::collections::BinaryHeap;

use seda_datagraph::{compactness_with, pin, DataGraph, TraversalScratch};
use seda_textindex::{NodeIndex, ScoredNode};
use seda_xmlstore::NodeId;

use crate::partition::ComponentPartition;
use crate::types::{
    LimitBreach, MaterializedTerms, ResultTuple, SearchLimits, SearchStats, TermInput, TopKConfig,
    TopKResult,
};

/// Reusable buffers of the top-k search: posting lists and their component
/// partition, the flat candidate arenas of the join loop and the traversal
/// scratch of the connectivity checks.
///
/// A scratch serves any number of searches over any engine; reuse it across
/// queries to keep the read path allocation-free once the buffers have grown
/// to their working size.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) traversal: TraversalScratch,
    /// Per-term sorted-access lists (reused; only the first `m` are live).
    lists: Vec<Vec<ScoredNode>>,
    /// Component partition of `lists[..m]`, rebuilt per cold search.
    partition: ComponentPartition,
    /// Candidate slots handed to [`NodeIndex::evaluate_into`].
    eval_candidates: Vec<u32>,
    pub(crate) join: JoinBuffers,
}

/// The join loop's working buffers (everything but its input lists).
#[derive(Debug, Default)]
pub(crate) struct JoinBuffers {
    /// Current combo arena: `stride`-sized `NodeId` runs.
    combo_nodes: Vec<NodeId>,
    /// Content score per combo (parallel to `combo_nodes` runs).
    combo_scores: Vec<f64>,
    /// Next-stage combo arena (ping-pong partner).
    next_nodes: Vec<NodeId>,
    next_scores: Vec<f64>,
    /// The `k` best scores buffered so far, kept sorted descending so the
    /// threshold test reads the k-th best in O(1) instead of re-sorting the
    /// whole candidate buffer per sorted access.
    pub(crate) kth_scores: Vec<f64>,
    positions: Vec<usize>,
    best_scores: Vec<f64>,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// The traversal scratch, for callers that interleave their own graph
    /// traversals (connectivity checks, shortest paths) with searches over
    /// the same reusable buffers — e.g. a per-thread reader handle serving a
    /// whole query pipeline from one allocation-free scratch.
    pub fn traversal_mut(&mut self) -> &mut TraversalScratch {
        &mut self.traversal
    }
}

/// Top-k searcher over a collection's node index and data graph.
pub struct TopKSearcher<'a> {
    index: &'a NodeIndex,
    graph: &'a DataGraph,
}

/// Max-heap entry ordered by combined score.
#[derive(Debug)]
struct HeapTuple(ResultTuple);

impl PartialEq for HeapTuple {
    fn eq(&self, other: &Self) -> bool {
        self.0.score == other.0.score && self.0.nodes == other.0.nodes
    }
}
impl Eq for HeapTuple {}
impl PartialOrd for HeapTuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .score
            .partial_cmp(&other.0.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.0.nodes.cmp(&self.0.nodes))
    }
}

/// Scores one candidate tuple, returning `None` for disconnected tuples.
fn score_tuple(
    graph: &DataGraph,
    traversal: &mut TraversalScratch,
    nodes: &[NodeId],
    content: f64,
    config: &TopKConfig,
    stats: &mut SearchStats,
) -> Option<ResultTuple> {
    stats.tuples_scored += 1;
    let compact = compactness_with(graph, traversal, nodes, config.max_depth);
    if compact == 0.0 && nodes.len() > 1 {
        stats.tuples_disconnected += 1;
        return None;
    }
    let score = content + compact;
    Some(ResultTuple { nodes: nodes.to_vec(), content_score: content, compactness: compact, score })
}

impl<'a> TopKSearcher<'a> {
    /// Creates a searcher over prebuilt structures.  Document components are
    /// read from the graph (a build-time artifact), never recomputed here.
    pub fn new(index: &'a NodeIndex, graph: &'a DataGraph) -> Self {
        TopKSearcher { index, graph }
    }

    /// Evaluates each term into `lists[..terms.len()]` — the per-term
    /// sorted-access lists — reusing the list buffers.  `lists` only ever
    /// grows, so spare lists stay allocated across searches with fewer terms.
    fn fill_lists(
        &self,
        terms: &[TermInput],
        lists: &mut Vec<Vec<ScoredNode>>,
        candidates: &mut Vec<u32>,
    ) {
        if lists.len() < terms.len() {
            lists.resize_with(terms.len(), Vec::new);
        }
        for (term, list) in terms.iter().zip(lists.iter_mut()) {
            self.index.evaluate_into(&term.query, term.allowed_paths.as_deref(), candidates, list);
        }
    }

    /// Runs the Threshold-Algorithm search under per-request resource
    /// ceilings, reusing `scratch` for every buffer the join loop needs.
    /// Ungoverned callers pass [`SearchLimits::unlimited`], one-off callers
    /// `&mut SearchScratch::new()`.  The term lists are filled, then
    /// semi-joined on document components (module docs), then joined.
    ///
    /// Every term count runs the same join.  Over one list it reads the first
    /// `min(k, len)` entries and stops: the k-th read meets the threshold,
    /// every singleton tuple is maximally compact (`1.0`, no label probe) and
    /// no partner is ever looked up.
    ///
    /// At most [`TopKConfig::candidate_limit`] candidate tuples are scored;
    /// when the limit clips the candidate set, the number of dropped
    /// combinations is recorded in [`SearchStats::candidates_truncated`].
    ///
    /// The [`SearchLimits`] ceilings are checked at the loop's existing
    /// counter sites (sorted access, random access, tuple scoring, label
    /// probes) plus a cancellation test per sorted access and a deadline test
    /// (one clock read) before sorted access 0 and every
    /// [`SearchLimits::DEADLINE_STRIDE`]th after.  On a breach the loop stops
    /// and returns the top-k prefix computed so far — exact over the
    /// combinations enumerated up to the stop, thanks to TA's monotone
    /// threshold — together with the tripped [`LimitBreach`]; `None` means the
    /// search ran to its normal termination.
    ///
    /// The pairs of a two-term search are scored by pinning the node each
    /// sorted access returns (module docs, "Random access"): tuples, score
    /// bits and every counter but [`SearchStats::label_probes`] equal the
    /// pair-by-pair scoring's.
    pub fn search(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
    ) -> (TopKResult, Option<LimitBreach>) {
        let SearchScratch { traversal, lists, partition, eval_candidates, join } = scratch;
        self.fill_lists(terms, lists, eval_candidates);
        let lists = &mut lists[..terms.len()];
        partition.semi_join(self.graph, lists);
        self.join(lists, partition, config, limits, traversal, join)
    }

    /// Materialises the per-term sorted-access lists once, for reuse across
    /// executions of a prepared statement.
    ///
    /// The returned lists — semi-joined on their components — and their
    /// component partition are exactly what [`TopKSearcher::search`] would
    /// fill into its scratch, so [`TopKSearcher::search_materialized`] over
    /// them is equivalent to a fresh search over the same terms.
    pub fn materialize_terms(&self, terms: &[TermInput]) -> MaterializedTerms {
        let mut materialized = MaterializedTerms::default();
        let MaterializedTerms { lists, partition } = &mut materialized;
        self.fill_lists(terms, lists, &mut Vec::new());
        partition.semi_join(self.graph, lists);
        materialized
    }

    /// [`TopKSearcher::search`] over pre-materialised term lists: the join
    /// loop reads the lists and their partition in place (nothing is copied
    /// into the scratch), so results — every counter included — equal a cold
    /// search over the terms the lists were materialised from.
    pub fn search_materialized(
        &self,
        materialized: &MaterializedTerms,
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
    ) -> (TopKResult, Option<LimitBreach>) {
        let MaterializedTerms { lists, partition } = materialized;
        let SearchScratch { traversal, join, .. } = scratch;
        self.join(lists, partition, config, limits, traversal, join)
    }

    /// Picks the copy of [`TopKSearcher::rank_join`] a search runs in: the
    /// one with the pinned pair arm for two lists, the one without for
    /// everything else.  Two copies of one source because the arm hands the
    /// loop's counters and buffers to an out-of-line function, which costs
    /// the loop its registers whether or not the arm is ever taken:
    /// factbook-olap's three-term searches read 5–10% slower with the arm
    /// compiled into their loop.
    fn join(
        &self,
        lists: &[Vec<ScoredNode>],
        partition: &ComponentPartition,
        config: &TopKConfig,
        limits: &SearchLimits,
        traversal: &mut TraversalScratch,
        join: &mut JoinBuffers,
    ) -> (TopKResult, Option<LimitBreach>) {
        if lists.len() == 2 {
            self.rank_join::<true>(lists, partition, config, limits, traversal, join)
        } else {
            self.rank_join::<false>(lists, partition, config, limits, traversal, join)
        }
    }

    /// The one search body behind [`TopKSearcher::search`] and
    /// [`TopKSearcher::search_materialized`]: the empty/`k == 0` guard and
    /// the Threshold-Algorithm join loop over the borrowed term lists, already
    /// semi-joined, and their component partition.  `PAIRS` compiles the
    /// pinned pair arm in ([`score_pairs_pinned`]); the caller sets it only
    /// for two lists.
    fn rank_join<const PAIRS: bool>(
        &self,
        lists: &[Vec<ScoredNode>],
        partition: &ComponentPartition,
        config: &TopKConfig,
        limits: &SearchLimits,
        traversal: &mut TraversalScratch,
        join: &mut JoinBuffers,
    ) -> (TopKResult, Option<LimitBreach>) {
        let mut stats = SearchStats::default();
        if lists.is_empty() || config.k == 0 {
            return (TopKResult { tuples: Vec::new(), stats }, None);
        }
        let m = lists.len();
        let JoinBuffers {
            combo_nodes,
            combo_scores,
            next_nodes,
            next_scores,
            kth_scores,
            positions,
            best_scores,
        } = join;
        let label_probes_before = traversal.label_probes;
        if lists.iter().any(Vec::is_empty) {
            // Some term has no match at all, or none in a component the
            // others reach: the result is empty (Definition 4 requires every
            // term to be satisfied).
            return (TopKResult { tuples: Vec::new(), stats }, None);
        }
        best_scores.clear();
        best_scores.extend(lists.iter().map(|l| l[0].score));
        positions.clear();
        positions.resize(m, 0);
        kth_scores.clear();

        let mut buffer: BinaryHeap<HeapTuple> = BinaryHeap::new();
        let mut breach: Option<LimitBreach> = None;

        'outer: loop {
            let mut advanced = false;
            for i in 0..m {
                if let Some(deadline) = limits.deadline {
                    if stats.sorted_accesses % SearchLimits::DEADLINE_STRIDE == 0
                        && std::time::Instant::now() >= deadline
                    {
                        breach = Some(LimitBreach { resource: "deadline", spent: 0, budget: 0 });
                        break 'outer;
                    }
                }
                if let Some(cancel) = &limits.cancel {
                    if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                        breach = Some(LimitBreach { resource: "cancelled", spent: 0, budget: 0 });
                        break 'outer;
                    }
                }
                let pos = positions[i];
                if pos >= lists[i].len() {
                    continue;
                }
                if let Some(max) = limits.max_sorted_accesses {
                    if stats.sorted_accesses >= max {
                        breach = Some(LimitBreach {
                            resource: "sorted accesses",
                            spent: stats.sorted_accesses as u64,
                            budget: max as u64,
                        });
                        break 'outer;
                    }
                }
                positions[i] += 1;
                advanced = true;
                stats.sorted_accesses += 1;
                let new_node = lists[i][pos];

                // Join the new node with every combination of already-seen
                // nodes of its own document component from the other lists
                // (a tuple spanning two components can never be connected,
                // so those combinations are never formed).  The combos live
                // in two flat ping-pong arenas: at stage j each combo is a
                // j-sized NodeId run plus a running content score.
                combo_nodes.clear();
                combo_scores.clear();
                combo_scores.push(0.0);
                for j in 0..m {
                    next_nodes.clear();
                    next_scores.clear();
                    let stride = j;
                    if j == i {
                        for (c, &content) in combo_scores.iter().enumerate() {
                            next_nodes
                                .extend_from_slice(&combo_nodes[c * stride..(c + 1) * stride]);
                            next_nodes.push(new_node.node);
                            next_scores.push(content + new_node.score);
                        }
                    } else {
                        // The new node's component group of list j, cut at
                        // the list's cursor: its partners, in sorted-access
                        // order, found without touching any other entry.
                        let seen_j = partition.seen(self.graph, j, &new_node, positions[j]);
                        for (c, &content) in combo_scores.iter().enumerate() {
                            for &pos in seen_j {
                                let candidate = lists[j][pos as usize];
                                stats.random_accesses += 1;
                                next_nodes
                                    .extend_from_slice(&combo_nodes[c * stride..(c + 1) * stride]);
                                next_nodes.push(candidate.node);
                                next_scores.push(content + candidate.score);
                            }
                        }
                    }
                    std::mem::swap(combo_nodes, next_nodes);
                    std::mem::swap(combo_scores, next_scores);
                    if combo_scores.is_empty() {
                        break;
                    }
                    if stats.tuples_scored + combo_scores.len() > config.candidate_limit {
                        let keep = config.candidate_limit.saturating_sub(stats.tuples_scored);
                        stats.candidates_truncated += combo_scores.len() - keep;
                        combo_scores.truncate(keep);
                        combo_nodes.truncate(keep * (j + 1));
                    }
                }
                if let Some(max) = limits.max_random_accesses {
                    if stats.random_accesses > max {
                        breach = Some(LimitBreach {
                            resource: "random accesses",
                            spent: stats.random_accesses as u64,
                            budget: max as u64,
                        });
                        break 'outer;
                    }
                }
                // The tuples just formed, still to be scored.  A search over
                // pairs asks one source — the node just read — about the
                // whole batch: that arm runs out of line and exists only in
                // the `PAIRS` copy of this function, so the loop below is
                // compiled as it always was for every other search.
                let mut unscored = combo_nodes.len() == combo_scores.len() * m;
                if PAIRS && unscored && combo_scores.len() >= PIN_MIN {
                    match score_pairs_pinned(
                        self.graph,
                        traversal,
                        (new_node.node, i),
                        (combo_nodes, combo_scores),
                        config,
                        limits,
                        &mut stats,
                        kth_scores,
                        &mut buffer,
                    ) {
                        PairArm::NotTaken => {}
                        PairArm::Scored => unscored = false,
                        PairArm::Stopped(stop) => {
                            breach = stop;
                            break 'outer;
                        }
                    }
                }
                if unscored {
                    for (c, &content) in combo_scores.iter().enumerate() {
                        if let Some(max) = limits.max_tuples_scored {
                            if stats.tuples_scored >= max {
                                breach = Some(LimitBreach {
                                    resource: "candidate tuples",
                                    spent: stats.tuples_scored as u64,
                                    budget: max as u64,
                                });
                                break 'outer;
                            }
                        }
                        let nodes = &combo_nodes[c * m..(c + 1) * m];
                        stats.tuples_scored += 1;
                        let compact =
                            compactness_with(self.graph, traversal, nodes, config.max_depth);
                        if compact == 0.0 && m > 1 {
                            stats.tuples_disconnected += 1;
                        } else {
                            let score = content + compact;
                            note_score(kth_scores, config.k, score);
                            // Buffer only tuples still inside the provisional
                            // top-k (ties at the k-th score included): a tuple
                            // strictly below k better ones can never re-enter,
                            // and the small buffer keeps the final sort cheap.
                            if score
                                >= *kth_scores.last().expect(
                                    "invariant: note_score keeps at least one entry (kth-order)",
                                )
                            {
                                buffer.push(HeapTuple(ResultTuple {
                                    nodes: nodes.to_vec(),
                                    content_score: content,
                                    compactness: compact,
                                    score,
                                }));
                            }
                        }
                        if stats.tuples_scored >= config.candidate_limit {
                            break 'outer;
                        }
                    }
                }
                if let Some(max) = limits.max_label_probes {
                    let spent = traversal.label_probes - label_probes_before;
                    if spent > max {
                        breach = Some(LimitBreach { resource: "label probes", spent, budget: max });
                        break 'outer;
                    }
                }

                // Threshold test: an unseen combination can score at most
                //   max_i ( frontier_i + Σ_{j≠i} best_j )
                // in content, plus the maximal structural bonus.
                let mut threshold_content = f64::NEG_INFINITY;
                for j in 0..m {
                    // An exhausted list keeps contributing its last score;
                    // dropping it from the max would tighten the threshold
                    // but changes `sorted_accesses` / `early_terminated`, so
                    // it is left to ROADMAP item 6 (a threshold that can stop).
                    let front = if positions[j] == 0 {
                        best_scores[j]
                    } else {
                        lists[j][positions[j] - 1].score
                    };
                    let mut bound = front;
                    for (l, best) in best_scores.iter().enumerate() {
                        if l != j {
                            bound += best;
                        }
                    }
                    threshold_content = threshold_content.max(bound);
                }
                let threshold = threshold_content + 1.0;

                if kth_scores.len() >= config.k {
                    let kth_score = kth_scores[config.k - 1];
                    if kth_score >= threshold {
                        stats.early_terminated = true;
                        break 'outer;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        stats.label_probes = traversal.label_probes - label_probes_before;

        let mut tuples: Vec<ResultTuple> =
            buffer.into_sorted_vec().into_iter().map(|h| h.0).collect();
        // `into_sorted_vec` is ascending; we want best-first.
        tuples.reverse();
        tuples.dedup_by(|a, b| a.nodes == b.nodes);
        tuples.truncate(config.k);
        (TopKResult { tuples, stats }, breach)
    }

    /// Exhaustive baseline: enumerates every combination of matching nodes,
    /// scores them all and returns the best `k`.  Used to validate the TA
    /// implementation and as the comparison point in the benchmark harness.
    ///
    /// Like the TA search, at most [`TopKConfig::candidate_limit`] candidate
    /// tuples are materialised; clipped combinations are counted in
    /// [`SearchStats::candidates_truncated`].
    pub fn search_naive(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        scratch: &mut SearchScratch,
    ) -> TopKResult {
        let mut stats = SearchStats::default();
        if terms.is_empty() || config.k == 0 {
            return TopKResult { tuples: Vec::new(), stats };
        }
        let SearchScratch { traversal, lists, eval_candidates, join, .. } = scratch;
        self.fill_lists(terms, lists, eval_candidates);
        let JoinBuffers { combo_nodes, combo_scores, next_nodes, next_scores, .. } = join;
        let label_probes_before = traversal.label_probes;
        let lists = &lists[..terms.len()];
        if lists.iter().any(Vec::is_empty) {
            return TopKResult { tuples: Vec::new(), stats };
        }
        stats.sorted_accesses = lists.iter().map(Vec::len).sum();
        let m = lists.len();

        combo_nodes.clear();
        combo_scores.clear();
        combo_scores.push(0.0);
        for (j, list) in lists.iter().enumerate() {
            next_nodes.clear();
            next_scores.clear();
            let stride = j;
            'combos: for (c, &content) in combo_scores.iter().enumerate() {
                let run = &combo_nodes[c * stride..(c + 1) * stride];
                for (ci, candidate) in list.iter().enumerate() {
                    // A tuple spanning two document components can never
                    // be connected: skip it before the connectivity check.
                    if let Some(&first) = run.first() {
                        if !self.graph.same_component(first, candidate.node) {
                            continue;
                        }
                    }
                    next_nodes.extend_from_slice(run);
                    next_nodes.push(candidate.node);
                    next_scores.push(content + candidate.score);
                    if next_scores.len() > config.candidate_limit {
                        // Candidate-limit guard against combinatorial
                        // blow-up: everything after this point in the stage
                        // is dropped and accounted for.
                        stats.candidates_truncated +=
                            (list.len() - ci - 1) + (combo_scores.len() - c - 1) * list.len();
                        break 'combos;
                    }
                }
            }
            std::mem::swap(combo_nodes, next_nodes);
            std::mem::swap(combo_scores, next_scores);
            if combo_scores.is_empty() {
                break;
            }
        }

        let mut tuples: Vec<ResultTuple> = Vec::new();
        if combo_nodes.len() == combo_scores.len() * m {
            for (c, &content) in combo_scores.iter().enumerate() {
                let nodes = &combo_nodes[c * m..(c + 1) * m];
                if let Some(tuple) =
                    score_tuple(self.graph, traversal, nodes, content, config, &mut stats)
                {
                    tuples.push(tuple);
                }
            }
        }
        stats.label_probes = traversal.label_probes - label_probes_before;
        tuples.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.nodes.cmp(&b.nodes))
        });
        tuples.truncate(config.k);
        TopKResult { tuples, stats }
    }
}

/// Fewest pairs one sorted access must score for the pair arm to pin its
/// node.  A pin reads `L(new)` twice (scatter, un-scatter) and all of every
/// `L(partner)`; the merge reads, per pair, both labels up to the end of the
/// shorter one — by entry counts the pin breaks even around the third pair.
/// Sized by measurement over the benchmark's four paper-scale corpora (the
/// twenty selective searches and the broad one, one process, the settings in
/// turns, fastest of 30): wall time is the same for every value from 2 to 16
/// — mondial-links 120–124 ms for the twenty against 320 ms never pinning,
/// factbook-olap's two-term broad search 3.35–3.49 ms against 3.40 — so the
/// probe count decides.  On the short tree labels documents without cross
/// edges then carried, small batches *read more* pinned than merged (factbook
/// broad: +22% entries at 2, +0.9% at 8, none at 16, where no batch is that
/// large), while mondial's labels of the time lost 0.01% between 2 and 8.  Those
/// documents now answer by parent walks, pinned or not, so only hub
/// components feel the value.
const PIN_MIN: usize = 8;

/// What [`score_pairs_pinned`] did with one sorted access's pairs.
enum PairArm {
    /// Nothing: the node cannot be pinned (outside the graph, or a graph
    /// without labels); the general loop scores the pairs.
    NotTaken,
    /// Scored every pair.
    Scored,
    /// Scored up to a stop of the whole join: the breached ceiling, or `None`
    /// at the candidate limit.
    Stopped(Option<LimitBreach>),
}

/// The join's scoring loop for the pairs of one sorted access, as one
/// one-to-many distance query: `new` — at position `slot` of every pair — is
/// pinned once, and each pair costs one pass over its partner's label instead
/// of a merge of both ([`seda_datagraph::pin`]).  Same checks in the same
/// order as the general loop, same compactness (`1 / (1 + distance)`, 0 when
/// disconnected), so everything but the probe count repeats;
/// `tests/topk_equivalence.rs` holds it to `search_naive`, which scores every
/// pair one-to-one through `compactness_with`.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn score_pairs_pinned(
    graph: &DataGraph,
    traversal: &mut TraversalScratch,
    (new, slot): (NodeId, usize),
    (pairs, contents): (&[NodeId], &[f64]),
    config: &TopKConfig,
    limits: &SearchLimits,
    stats: &mut SearchStats,
    kth_scores: &mut Vec<f64>,
    buffer: &mut BinaryHeap<HeapTuple>,
) -> PairArm {
    let Some(mut pinned) = pin(graph, traversal, new) else {
        return PairArm::NotTaken;
    };
    for (nodes, &content) in pairs.chunks_exact(2).zip(contents) {
        if let Some(max) = limits.max_tuples_scored {
            if stats.tuples_scored >= max {
                return PairArm::Stopped(Some(LimitBreach {
                    resource: "candidate tuples",
                    spent: stats.tuples_scored as u64,
                    budget: max as u64,
                }));
            }
        }
        stats.tuples_scored += 1;
        match pinned.distance_to(nodes[1 - slot], config.max_depth) {
            None => stats.tuples_disconnected += 1,
            Some(distance) => {
                let compactness = 1.0 / (1.0 + distance as f64);
                let score = content + compactness;
                note_score(kth_scores, config.k, score);
                // As in the general loop: only tuples still inside the
                // provisional top-k are buffered.
                if score
                    >= *kth_scores
                        .last()
                        .expect("invariant: note_score keeps at least one entry (kth-order)")
                {
                    buffer.push(HeapTuple(ResultTuple {
                        nodes: nodes.to_vec(),
                        content_score: content,
                        compactness,
                        score,
                    }));
                }
            }
        }
        if stats.tuples_scored >= config.candidate_limit {
            return PairArm::Stopped(None);
        }
    }
    PairArm::Scored
}

/// Folds one buffered score into the descending top-`k` score list
/// (`scores.len() <= k` always): the k-th best buffered score is
/// `scores[k - 1]` once `k` tuples have been buffered.
fn note_score(scores: &mut Vec<f64>, k: usize, score: f64) {
    let pos = scores.partition_point(|&s| s > score);
    if pos < k {
        if scores.len() == k {
            scores.pop();
        }
        scores.insert(pos, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_datagraph::GraphConfig;
    use seda_textindex::FullTextQuery;
    use seda_xmlstore::{parse_collection, Collection};

    fn factbook_fragment() -> Collection {
        parse_collection(vec![
            (
                "us2006.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><GDP_ppp>12.31T</GDP_ppp>
                       <import_partners>
                         <item><trade_country>China</trade_country><percentage>15</percentage></item>
                         <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                       </import_partners>
                     </economy></country>"#,
            ),
            (
                "mexico2003.xml",
                r#"<country><name>Mexico</name><year>2003</year>
                     <economy><GDP>924.4B</GDP>
                       <export_partners>
                         <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                       </export_partners>
                     </economy></country>"#,
            ),
            (
                "canada2006.xml",
                r#"<country><name>Canada</name><year>2006</year>
                     <economy><GDP_ppp>1.1T</GDP_ppp></economy></country>"#,
            ),
        ])
        .unwrap()
    }

    /// The plain search: unlimited, fresh scratch.
    fn search(searcher: &TopKSearcher<'_>, terms: &[TermInput], config: &TopKConfig) -> TopKResult {
        searcher.search(terms, config, &SearchLimits::unlimited(), &mut SearchScratch::new()).0
    }

    fn searcher_parts(c: &Collection) -> (NodeIndex, DataGraph) {
        (NodeIndex::build(c), DataGraph::build(c, &GraphConfig::default()))
    }

    fn query1_terms(c: &Collection) -> Vec<TermInput> {
        // Query 1: (∗, "United States") ∧ (trade_country, ∗) ∧ (percentage, ∗)
        let tc_paths: Vec<_> = c
            .paths()
            .iter()
            .filter(|(_, p)| {
                p.leaf().map(|l| c.symbols().resolve(l) == "trade_country").unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect();
        let pct_paths: Vec<_> = c
            .paths()
            .iter()
            .filter(|(_, p)| {
                p.leaf().map(|l| c.symbols().resolve(l) == "percentage").unwrap_or(false)
            })
            .map(|(id, _)| id)
            .collect();
        vec![
            TermInput::new(FullTextQuery::phrase("United States")),
            TermInput::with_paths(FullTextQuery::Any, tc_paths),
            TermInput::with_paths(FullTextQuery::Any, pct_paths),
        ]
    }

    #[test]
    fn query1_returns_connected_tuples_only() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let result = search(&searcher, &query1_terms(&c), &TopKConfig::with_k(5));
        assert!(!result.tuples.is_empty());
        for tuple in &result.tuples {
            assert_eq!(tuple.nodes.len(), 3);
            assert!(tuple.compactness > 0.0, "tuples must be connected");
            // All three nodes of a connected tuple live in the same document
            // in this fragment (no cross-document edges).
            let doc = tuple.nodes[0].doc;
            assert!(tuple.nodes.iter().all(|n| n.doc == doc));
        }
    }

    #[test]
    fn tight_tuples_rank_above_loose_ones() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let result = search(&searcher, &query1_terms(&c), &TopKConfig::with_k(10));
        // The best US tuple must pair China with 15 or Canada with 16.9 (the
        // same-item pairing), not a cross-item combination.
        let best = &result.tuples[0];
        let contents: Vec<String> = best.nodes.iter().map(|&n| c.content(n).unwrap()).collect();
        let same_item = (contents.contains(&"China".to_string())
            && contents.contains(&"15".to_string()))
            || (contents.contains(&"Canada".to_string()) && contents.contains(&"16.9".to_string()))
            || (contents.contains(&"United States".to_string())
                && contents.contains(&"70.6".to_string()));
        assert!(
            same_item,
            "best tuple should pair a trade country with its own percentage: {contents:?}"
        );
    }

    #[test]
    fn ta_matches_naive_baseline() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let config = TopKConfig::with_k(4);
        let terms = query1_terms(&c);
        let ta = search(&searcher, &terms, &config);
        let naive = searcher.search_naive(&terms, &config, &mut SearchScratch::new());
        assert_eq!(ta.tuples.len(), naive.tuples.len());
        for (a, b) in ta.tuples.iter().zip(naive.tuples.iter()) {
            assert!(
                (a.score - b.score).abs() < 1e-9,
                "TA and naive disagree: {} vs {}",
                a.score,
                b.score
            );
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let mut scratch = SearchScratch::new();
        for k in [1usize, 3, 10] {
            let config = TopKConfig::with_k(k);
            let reused =
                searcher.search(&terms, &config, &SearchLimits::unlimited(), &mut scratch).0;
            let fresh = search(&searcher, &terms, &config);
            assert_eq!(reused.tuples, fresh.tuples, "scratch reuse changed results at k={k}");
            let reused_naive = searcher.search_naive(&terms, &config, &mut scratch);
            let fresh_naive = searcher.search_naive(&terms, &config, &mut SearchScratch::new());
            assert_eq!(reused_naive.tuples, fresh_naive.tuples);
        }
    }

    #[test]
    fn k_limits_the_result_size() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let one = search(&searcher, &terms, &TopKConfig::with_k(1));
        assert_eq!(one.tuples.len(), 1);
        let many = search(&searcher, &terms, &TopKConfig::with_k(50));
        assert!(many.tuples.len() >= one.tuples.len());
        // Results are sorted best-first.
        for w in many.tuples.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_term_list_and_unmatchable_terms() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        assert!(search(&searcher, &[], &TopKConfig::default()).tuples.is_empty());
        let impossible = vec![
            TermInput::new(FullTextQuery::keywords("zzzunknownzzz")),
            TermInput::new(FullTextQuery::Any),
        ];
        assert!(search(&searcher, &impossible, &TopKConfig::default()).tuples.is_empty());
    }

    #[test]
    fn single_term_queries_degenerate_to_ranked_retrieval() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = vec![TermInput::new(FullTextQuery::phrase("United States"))];
        let result = search(&searcher, &terms, &TopKConfig::with_k(10));
        assert_eq!(result.tuples.len(), 2, "US appears as a country name and as a trade partner");
        for t in &result.tuples {
            assert_eq!(t.compactness, 1.0, "singleton tuples are maximally compact");
        }
    }

    #[test]
    fn context_restriction_filters_terms() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let name_path = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let terms =
            vec![TermInput::with_paths(FullTextQuery::phrase("United States"), vec![name_path])];
        let result = search(&searcher, &terms, &TopKConfig::default());
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(c.context_string(result.tuples[0].nodes[0]).unwrap(), "/country/name");
    }

    #[test]
    fn stats_record_work_and_early_termination_does_less_of_it() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let small_k = search(&searcher, &terms, &TopKConfig::with_k(1));
        let naive =
            searcher.search_naive(&terms, &TopKConfig::with_k(1), &mut SearchScratch::new());
        assert!(small_k.stats.sorted_accesses > 0);
        assert!(small_k.stats.tuples_scored <= naive.stats.tuples_scored);
        assert!(small_k.stats.label_probes > 0, "connectivity checks are accounted");
        assert!(naive.stats.label_probes > 0);
    }

    #[test]
    fn each_search_limit_breaches_with_its_resource_name() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let mut scratch = SearchScratch::new();
        let cases: Vec<(&str, SearchLimits)> = vec![
            (
                "sorted accesses",
                SearchLimits { max_sorted_accesses: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "random accesses",
                SearchLimits { max_random_accesses: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "candidate tuples",
                SearchLimits { max_tuples_scored: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "label probes",
                SearchLimits { max_label_probes: Some(0), ..SearchLimits::unlimited() },
            ),
            (
                "deadline",
                SearchLimits {
                    deadline: Some(std::time::Instant::now()),
                    ..SearchLimits::unlimited()
                },
            ),
        ];
        for (resource, limits) in cases {
            let (result, breach) = searcher.search(&terms, &config, &limits, &mut scratch);
            let breach = breach.unwrap_or_else(|| panic!("{resource} limit must trip"));
            assert_eq!(breach.resource, resource);
            // The prefix is well-formed even when empty.
            for t in &result.tuples {
                assert_eq!(t.nodes.len(), terms.len());
            }
        }
    }

    #[test]
    fn cancellation_stops_the_search() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let flag = Arc::new(AtomicBool::new(true));
        let limits = SearchLimits { cancel: Some(flag), ..SearchLimits::unlimited() };
        let (result, breach) = searcher.search(
            &query1_terms(&c),
            &TopKConfig::with_k(5),
            &limits,
            &mut SearchScratch::new(),
        );
        assert_eq!(breach.expect("cancelled search must report a breach").resource, "cancelled");
        assert!(result.tuples.is_empty());
    }

    #[test]
    fn generous_limits_do_not_change_the_result() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let limits = SearchLimits {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(600)),
            max_sorted_accesses: Some(usize::MAX),
            max_random_accesses: Some(usize::MAX),
            max_tuples_scored: Some(usize::MAX),
            max_label_probes: Some(u64::MAX),
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false))),
        };
        let (governed, breach) =
            searcher.search(&terms, &config, &limits, &mut SearchScratch::new());
        assert!(breach.is_none());
        assert_eq!(governed.tuples, search(&searcher, &terms, &config).tuples);
    }

    #[test]
    fn materialized_search_matches_fresh_search() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);
        let config = TopKConfig::with_k(5);
        let limits = SearchLimits::unlimited();
        let materialized = searcher.materialize_terms(&terms);
        let mut scratch = SearchScratch::new();
        let (fresh, _) = searcher.search(&terms, &config, &limits, &mut scratch);
        let (replayed, breach) =
            searcher.search_materialized(&materialized, &config, &limits, &mut scratch);
        assert!(breach.is_none());
        assert_eq!(fresh.tuples, replayed.tuples);
        assert_eq!(fresh.stats, replayed.stats);
    }

    #[test]
    fn one_list_join_reads_the_sorted_prefix_and_looks_up_no_partner() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        // "United States" matches 2 nodes; exercise k below, at and above the
        // list length to pin tuples, stats and the early-termination flag.
        let terms = vec![TermInput::new(FullTextQuery::phrase("United States"))];
        let limits = SearchLimits::unlimited();
        let mut scratch = SearchScratch::new();
        for k in [0usize, 1, 2, 10] {
            // A three-term search first leaves the scratch's partition built
            // for other lists: the one-list search never reads it.
            searcher.search(&query1_terms(&c), &TopKConfig::with_k(3), &limits, &mut scratch);
            let config = TopKConfig::with_k(k);
            let (result, breach) = searcher.search(&terms, &config, &limits, &mut scratch);
            assert!(breach.is_none());
            let read = k.min(2);
            let stats = &result.stats;
            assert_eq!((stats.sorted_accesses, stats.tuples_scored), (read, read), "k={k}");
            assert_eq!((stats.random_accesses, stats.label_probes), (0, 0), "k={k}");
            assert_eq!(stats.early_terminated, k == 1 || k == 2, "k={k}");
            assert_eq!(result.tuples.len(), read, "k={k}");
            assert!(result.tuples.iter().all(|t| t.compactness == 1.0));
            assert!(result.tuples.windows(2).all(|w| w[0].score >= w[1].score));
            let fresh = search(&searcher, &terms, &config);
            assert_eq!(result, fresh, "k={k}");
        }
        // The candidate bound stops the read before the threshold can.
        let clipped = TopKConfig { candidate_limit: 1, ..TopKConfig::with_k(2) };
        let (result, _) = searcher.search(&terms, &clipped, &limits, &mut scratch);
        assert_eq!((result.stats.sorted_accesses, result.tuples.len()), (1, 1));
        assert!(!result.stats.early_terminated);
    }

    #[test]
    fn candidate_truncation_is_recorded_not_silent() {
        let c = factbook_fragment();
        let (index, graph) = searcher_parts(&c);
        let searcher = TopKSearcher::new(&index, &graph);
        let terms = query1_terms(&c);

        // A generous limit loses nothing and reports nothing.
        let unclipped = search(&searcher, &terms, &TopKConfig::with_k(10));
        assert_eq!(unclipped.stats.candidates_truncated, 0);

        // A tiny limit clips the candidate set and must say so.
        let mut tight = TopKConfig::with_k(10);
        tight.candidate_limit = 3;
        let clipped = search(&searcher, &terms, &tight);
        assert!(clipped.stats.tuples_scored <= 3);
        assert!(
            clipped.stats.candidates_truncated > 0,
            "clipped combos must be counted: {:?}",
            clipped.stats
        );
        let clipped_naive = searcher.search_naive(&terms, &tight, &mut SearchScratch::new());
        assert!(
            clipped_naive.stats.candidates_truncated > 0,
            "naive clipping must be counted: {:?}",
            clipped_naive.stats
        );
    }
}
