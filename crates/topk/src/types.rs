//! Shared types of the top-k search unit.

use serde::{Deserialize, Serialize};

use seda_textindex::{FullTextQuery, ScoredNode};
use seda_xmlstore::{NodeId, PathId};

use crate::partition::ComponentPartition;

/// One search input per query term: the full-text expression plus an optional
/// context restriction (the set of allowed root-to-leaf paths the user picked
/// in the context summary).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Configuration of a top-k search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKConfig {
    /// Number of result tuples to return.
    pub k: usize,
    /// Maximum number of hops when testing connectivity / compactness.
    pub max_depth: usize,
    /// Weight of the summed content scores in the combined score.
    pub content_weight: f64,
    /// Weight of the structural compactness in the combined score.
    pub structure_weight: f64,
    /// Upper bound on the number of candidate tuples the algorithm will score
    /// (guards against combinatorial blow-up on match-all terms).
    ///
    /// When the bound clips the candidate set, the search result is a
    /// **best-effort** top-k over the combinations enumerated up to that
    /// point; the number of dropped combinations is reported in
    /// [`SearchStats::candidates_truncated`] rather than lost silently.
    pub candidate_limit: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 10,
            max_depth: 12,
            content_weight: 1.0,
            structure_weight: 1.0,
            candidate_limit: 200_000,
        }
    }
}

impl TopKConfig {
    /// Convenience constructor fixing only `k`.
    pub fn with_k(k: usize) -> Self {
        TopKConfig { k, ..TopKConfig::default() }
    }
}

/// Resource ceilings enforced inside the Threshold-Algorithm loop by
/// [`crate::TopKSearcher::search`].
///
/// Every field defaults to "unlimited"; the searcher only pays for the checks
/// whose ceilings are set.  Breaches stop the loop at the next check point and
/// are reported as a [`LimitBreach`] alongside the prefix computed so far —
/// TA's monotone threshold makes that prefix an exact top-k over the
/// combinations enumerated up to the stop.
#[derive(Debug, Clone, Default)]
pub struct SearchLimits {
    /// Hard wall-clock deadline; checked before the first sorted access and
    /// every [`SearchLimits::DEADLINE_STRIDE`]th after.
    pub deadline: Option<std::time::Instant>,
    /// Ceiling on entries consumed from sorted posting lists.
    pub max_sorted_accesses: Option<usize>,
    /// Ceiling on random-access score probes.
    pub max_random_accesses: Option<usize>,
    /// Ceiling on candidate tuples scored (connectivity + compactness).
    pub max_tuples_scored: Option<usize>,
    /// Ceiling on label entries scanned by connectivity-oracle probes.  Also
    /// arms the traversal scratch's BFS probe ceiling so oracle fallbacks
    /// cannot run unbounded.
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

    /// Limits that never trip — how ungoverned callers spell
    /// [`crate::TopKSearcher::search`].
    pub fn unlimited() -> Self {
        SearchLimits::default()
    }

    /// True when no ceiling is set (the governed loop degenerates to the
    /// ungoverned one except for a handful of `is_some` tests).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_sorted_accesses.is_none()
            && self.max_random_accesses.is_none()
            && self.max_tuples_scored.is_none()
            && self.max_label_probes.is_none()
            && self.cancel.is_none()
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Entries consumed from sorted posting lists.
    pub sorted_accesses: usize,
    /// Random-access score probes.
    pub random_accesses: usize,
    /// Candidate tuples whose connectivity/compactness was evaluated.
    pub tuples_scored: usize,
    /// Candidate tuples discarded because they were not connected.
    pub tuples_disconnected: usize,
    /// Candidate combinations dropped because
    /// [`TopKConfig::candidate_limit`] clipped the candidate set.  Non-zero
    /// means the result is a best-effort top-k rather than an exact one.
    pub candidates_truncated: usize,
    /// Label entries scanned by the connectivity-oracle intersections of the
    /// connectivity/compactness checks.
    pub label_probes: u64,
    /// True when the algorithm stopped via the threshold condition rather
    /// than exhausting all lists.
    pub early_terminated: bool,
}

/// Result of a top-k search.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
/// [`TermInput`]s: searching over them is equivalent to searching the terms.
/// Their component partition (the join's partner lookup) is computed once
/// alongside, so re-executions read both in place.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaterializedTerms {
    pub(crate) lists: Vec<Vec<ScoredNode>>,
    pub(crate) partition: ComponentPartition,
}

impl MaterializedTerms {
    /// Posting-list length of term `i` (sorted-access upper bound).
    pub fn list_len(&self, i: usize) -> usize {
        self.lists.get(i).map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = TopKConfig::default();
        assert_eq!(c.k, 10);
        assert!(c.max_depth > 0);
        assert!(c.content_weight > 0.0 && c.structure_weight > 0.0);
        assert_eq!(TopKConfig::with_k(3).k, 3);
    }

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
