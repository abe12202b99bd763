//! Shared types of the top-k search unit.

use seda_textindex::{FullTextQuery, ScoredNode};
use seda_xmlstore::{NodeId, PathId};

use crate::partition::ComponentPartition;

/// One search input per query term: the full-text expression plus an optional
/// context restriction (the set of allowed root-to-leaf paths the user picked
/// in the context summary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermInput {
    /// The full-text search expression of the query term.
    pub query: FullTextQuery,
    /// When present, only nodes whose context is in this set may satisfy the
    /// term (Sec. 5: "SEDA re-computes top-k results, with the additional
    /// constraint that the results satisfy the contexts chosen by the user").
    pub allowed_paths: Option<Vec<PathId>>,
}

impl TermInput {
    /// Unrestricted term.
    pub fn new(query: FullTextQuery) -> Self {
        TermInput { query, allowed_paths: None }
    }

    /// Term restricted to the given contexts.
    pub fn with_paths(query: FullTextQuery, allowed_paths: Vec<PathId>) -> Self {
        TermInput { query, allowed_paths: Some(allowed_paths) }
    }
}

/// Resource ceilings enforced inside the Threshold-Algorithm loop by
/// [`crate::TopKSearcher::search`].
///
/// Every field defaults to "unlimited"; the searcher only pays for the checks
/// whose ceilings are set, but for the candidate ceiling's two compares a
/// batch.  Breaches stop the loop at the next check point and
/// are reported as a [`LimitBreach`] alongside the prefix computed so far —
/// TA's monotone threshold makes that prefix an exact top-k over the
/// combinations enumerated up to the stop.
#[derive(Debug, Clone, Default)]
pub struct SearchLimits {
    /// Hard wall-clock deadline; checked before the first sorted access and
    /// every [`SearchLimits::DEADLINE_STRIDE`]th after.
    pub deadline: Option<std::time::Instant>,
    /// Ceiling on entries consumed from the sorted lists, counted as
    /// [`SearchStats::sorted_accesses`] counts them: live entries only.
    pub max_sorted_accesses: Option<usize>,
    /// Ceiling on random-access score probes.
    pub max_random_accesses: Option<usize>,
    /// The one candidate ceiling: the most candidate tuples the join scores
    /// (connectivity + compactness).  A batch of tuples that would pass it is
    /// cut to it, the dropped combinations counted in
    /// [`SearchStats::candidates_truncated`], and the join stops with a
    /// `"candidate tuples"` breach once the tuples scored reach it.  The
    /// engine always sets it, at most [`SearchLimits::CANDIDATE_GUARD`].
    pub max_tuples_scored: Option<usize>,
    /// Ceiling on connectivity-oracle probes (label entries scanned, parent
    /// steps walked).
    pub max_label_probes: Option<u64>,
    /// Cooperative cancellation flag; checked once per sorted access.  A
    /// breach is reported with resource name `"cancelled"`.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl SearchLimits {
    /// Sorted accesses between two reads of the clock for the deadline test.
    /// One read per access costs a quarter of a broad 3 ms join; at 64 a
    /// search overruns its deadline by at most 64 accesses' work, and an
    /// already expired deadline still breaches before the first access.
    pub const DEADLINE_STRIDE: usize = 64;

    /// The engine's candidate guard: match-all terms make the join
    /// combinatorial, so the engine never lets a search score more candidate
    /// tuples than this, whatever the caller's budget says.
    pub const CANDIDATE_GUARD: usize = 200_000;

    /// Limits that never trip — how ungoverned callers spell
    /// [`crate::TopKSearcher::search`].
    pub fn unlimited() -> Self {
        SearchLimits::default()
    }
}

/// A tripped [`SearchLimits`] ceiling: which resource ran out, how much was
/// spent when the loop stopped, and what the ceiling was.
///
/// For the `"deadline"` and `"cancelled"` resources the searcher has no
/// request-relative clock, so `spent`/`budget` are reported as `0`; the
/// serving layer rebuilds them from its `RequestContext`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitBreach {
    /// Human-readable resource name (e.g. `"sorted accesses"`).
    pub resource: &'static str,
    /// Amount consumed when the search stopped.
    pub spent: u64,
    /// The configured ceiling.
    pub budget: u64,
}

/// A scored result tuple `<n1, …, nm>` (Definition 4).
// surface: type in a public signature (`TopKResult::tuples`)
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTuple {
    /// One node per query term, in query-term order.
    pub nodes: Vec<NodeId>,
    /// Sum of the per-term content scores.
    pub content_score: f64,
    /// Structural compactness of the connecting subgraph (1 / (1 + size)).
    pub compactness: f64,
    /// Combined score used for ranking.
    pub score: f64,
}

/// Counters describing the work a search performed; used to demonstrate the
/// Threshold Algorithm's early termination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Entries consumed from the sorted lists.  The join reads only *live*
    /// entries, those of document components where every term has an entry
    /// (the semi-join before the join drops the rest), so this never exceeds
    /// the lists' live lengths ([`MaterializedTerms::list_len`]).
    /// [`crate::TopKSearcher::search_naive`] counts every entry of every list.
    pub sorted_accesses: usize,
    /// Random-access score probes.
    pub random_accesses: usize,
    /// Candidate tuples whose connectivity/compactness was evaluated.
    pub tuples_scored: usize,
    /// Candidate tuples discarded because they were not connected.
    pub tuples_disconnected: usize,
    /// Candidate combinations dropped because the batch that formed them
    /// would have passed [`SearchLimits::max_tuples_scored`]: the ceiling cut
    /// the candidate set.  Non-zero means the result is a best-effort top-k
    /// rather than an exact one.
    pub candidates_truncated: usize,
    /// Connectivity-oracle probes of the connectivity/compactness checks:
    /// core-label entries scanned and climb or parent steps walked.
    pub label_probes: u64,
    /// True when the algorithm stopped via the threshold condition rather
    /// than exhausting all lists.
    pub early_terminated: bool,
}

/// Result of a top-k search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopKResult {
    /// The top tuples, best first.
    pub tuples: Vec<ResultTuple>,
    /// Work counters.
    pub stats: SearchStats,
}

impl TopKResult {
    /// Nodes of every tuple (convenience for the connection summary, which
    /// consumes the top-k node tuples).
    pub fn node_tuples(&self) -> Vec<Vec<NodeId>> {
        self.tuples.iter().map(|t| t.nodes.clone()).collect()
    }
}

/// Per-term sorted-access lists materialised once at prepare time, so a
/// prepared statement's re-executions skip full-text evaluation entirely.
///
/// The lists are exactly what a fresh search would compute for the same
/// [`TermInput`]s — already semi-joined on document components, so each
/// keeps only its live entries — and searching over them is equivalent to
/// searching the terms.  Their component partition (the join's partner
/// lookup) is computed once alongside, so re-executions read both in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaterializedTerms {
    pub(crate) lists: Vec<Vec<ScoredNode>>,
    pub(crate) partition: ComponentPartition,
}

impl MaterializedTerms {
    /// Live length of term `i`'s list: its entries in document components
    /// where every term has one, the most sorted accesses the join can make
    /// on it.  A one-term statement keeps its whole list.
    pub fn list_len(&self, i: usize) -> usize {
        self.lists.get(i).map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialized_terms_report_list_shapes() {
        let m = MaterializedTerms { lists: vec![vec![], vec![]], ..MaterializedTerms::default() };
        assert_eq!(m.list_len(1), 0);
        assert_eq!(m.list_len(7), 0, "out-of-range terms read as empty");
    }

    #[test]
    fn term_input_constructors() {
        let t = TermInput::new(FullTextQuery::Any);
        assert!(t.allowed_paths.is_none());
        let t = TermInput::with_paths(FullTextQuery::Any, vec![PathId(1)]);
        assert_eq!(t.allowed_paths.unwrap(), vec![PathId(1)]);
    }

    #[test]
    fn node_tuples_projects_nodes() {
        let r = TopKResult {
            tuples: vec![ResultTuple {
                nodes: vec![NodeId::new(seda_xmlstore::DocId(0), 1)],
                content_score: 1.0,
                compactness: 1.0,
                score: 2.0,
            }],
            stats: SearchStats::default(),
        };
        assert_eq!(r.node_tuples().len(), 1);
        assert_eq!(r.node_tuples()[0].len(), 1);
    }
}
