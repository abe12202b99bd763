//! Structural invariant auditing — the `seda-audit` layer for the top-k
//! search unit.
//!
//! # Invariant catalog (substrate `topk`)
//!
//! | class | invariant |
//! |---|---|
//! | `scratch-pinned` | the embedded traversal scratch holds no pinned label between searches (delegated to the datagraph audit) |
//! | `kth-order` | the buffered k-best score list stays sorted descending and free of NaN |
//!
//! A [`SearchScratch`] passes between searches; the check is cheap enough to
//! run after every governed search in a paranoid build.  A search's own
//! counters (disconnected ≤ scored) are audited where the engine folds them
//! into its profile: `seda_core::verify_exec_profile`'s `profile-counters`
//! class.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};

use crate::searcher::SearchScratch;

const SUBSTRATE: &str = "topk";

impl SearchScratch {
    /// Verifies the reusable search state: the traversal scratch's clean
    /// pinned array, plus the descending order of the buffered k-best
    /// scores.
    pub fn verify(&self) -> AuditResult {
        let mut violations = self.traversal.verify().err().unwrap_or_default();
        for (i, pair) in self.join.kth_scores.windows(2).enumerate() {
            // NaNs are reported by the dedicated check below, so a plain
            // ascending comparison suffices here.
            if pair[0] < pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "kth-order",
                    format!("k-best scores not descending at {i}: {} then {}", pair[0], pair[1]),
                ));
            }
        }
        if self.join.kth_scores.iter().any(|s| s.is_nan()) {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "kth-order",
                "k-best score list holds a NaN".to_string(),
            ));
        }
        finish(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SearchLimits, TermInput, TopKSearcher};
    use seda_datagraph::{DataGraph, GraphConfig};
    use seda_textindex::{FullTextQuery, NodeIndex};
    use seda_xmlstore::parse_collection;

    #[test]
    fn used_scratch_passes_and_corruption_fails() {
        let c = parse_collection(vec![
            ("a.xml", "<doc><t>alpha beta</t><u>beta</u></doc>"),
            ("b.xml", "<doc><t>alpha</t></doc>"),
        ])
        .unwrap();
        let index = NodeIndex::build(&c);
        let graph = DataGraph::build(&c, &GraphConfig::default());
        let searcher = TopKSearcher::new(&index, &graph);
        let mut scratch = SearchScratch::new();
        scratch.verify().unwrap();
        let terms = vec![
            TermInput::new(FullTextQuery::keywords("alpha")),
            TermInput::new(FullTextQuery::keywords("beta")),
        ];
        let (result, _) = searcher.search(&terms, 3, &SearchLimits::unlimited(), &mut scratch);
        assert!(!result.tuples.is_empty());
        scratch.verify().unwrap();
        assert!(result.stats.tuples_disconnected <= result.stats.tuples_scored);

        // A score above the current best breaks the descending order.
        scratch.join.kth_scores.push(f64::INFINITY);
        let violations = scratch.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "kth-order"), "{violations:?}");
    }
}
