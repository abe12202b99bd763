//! Structural invariant auditing — the engine-level aggregation of the
//! per-substrate `seda-audit` layers.
//!
//! [`SedaEngine::verify`] chains the substrate checkers (collection, node
//! index, context index, data graph, metrics) and returns every violation
//! found, so one call audits the whole engine.  The engine holds no
//! dataguides, so their classes are checked on a
//! [`seda_dataguide::DataGuideSet`] by whoever builds one.  Each substrate
//! documents its own invariant catalog in its `audit` module; this module
//! adds the engine-local classes:
//!
//! # Invariant catalog (substrate `core`)
//!
//! | class | invariant |
//! |---|---|
//! | `profile-counters` | [`ExecProfile`] counters are mutually consistent (disconnected ≤ scored) |
//! | `profile-timings` | [`ExecProfile`] wall times are finite and non-negative |
//!
//! Every [`SedaEngine::build`] runs `verify()` — as one fork of the build
//! schedule, the node index's checks the second task (on the second thread
//! at two threads, last at one), same result — before handing the engine
//! to the caller and records the cost as the profile's
//! [`crate::trace::span::BUILD_VERIFY`] span; `seda-bench`'s `audit` binary
//! runs the same check, and a dataguide set's, over every datagen corpus
//! shape from the command line.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};

use crate::engine::SedaEngine;
use crate::parallel::fork;
use crate::response::ExecProfile;

const SUBSTRATE: &str = "core";

impl SedaEngine {
    /// Verifies every structural invariant of the engine's frozen substrates:
    /// the collection's preorder, tree linkage and context chain, both
    /// full-text indexes' dictionary/postings/CSR invariants, the data graph's
    /// adjacency symmetry, component partition and connectivity labels, and
    /// the metrics registry's.  Returns every violation found rather than
    /// stopping at the first.
    ///
    /// A freshly built engine always passes; [`SedaEngine::build`] enforces
    /// this before returning and records the cost as its
    /// [`crate::trace::span::BUILD_VERIFY`] span.
    pub fn verify(&self) -> AuditResult {
        self.audit(1)
    }

    /// [`SedaEngine::verify`] on `threads` threads, with the same result:
    /// one fork whose first task checks the collection, the context index,
    /// the data graph and the metrics, and whose second checks the node
    /// index — the largest audit.  The violations are concatenated in
    /// `verify()`'s order.  The build's audit runs here at the build's
    /// thread count.
    pub(crate) fn audit(&self, threads: usize) -> AuditResult {
        let node_index = self.node_index();
        let ([collection, context_index, graph, metrics], node_index) = fork(
            threads,
            || {
                [
                    self.collection().verify(),
                    self.context_index().verify(),
                    self.graph().verify(),
                    self.metrics().verify(),
                ]
            },
            || node_index.verify(),
        );
        let results = [collection, node_index, context_index, graph, metrics];
        let mut violations = Vec::new();
        for result in results {
            if let Err(mut v) = result {
                violations.append(&mut v);
            }
        }
        finish(violations)
    }

    /// Test-only corruption access: mutable references to every frozen
    /// substrate, so the seeded-corruption suite can reach the substrates'
    /// `corrupt_*` hooks through a fully built engine.
    #[doc(hidden)]
    pub fn substrates_mut(
        &mut self,
    ) -> (
        &mut seda_xmlstore::Collection,
        &mut seda_textindex::NodeIndex,
        &mut seda_textindex::ContextIndex,
        &mut seda_datagraph::DataGraph,
    ) {
        self.substrate_fields_mut()
    }
}

/// Verifies the mutual consistency of one response's [`ExecProfile`]: work
/// counters must be ordered (a tuple is only counted disconnected after being
/// scored — the `profile-counters` class) and wall times must be finite and
/// non-negative (the `profile-timings` class).
pub fn verify_exec_profile(profile: &ExecProfile) -> AuditResult {
    let mut violations = Vec::new();
    if profile.tuples_disconnected > profile.tuples_scored {
        violations.push(InvariantViolation::new(
            SUBSTRATE,
            "profile-counters",
            format!(
                "{} disconnected tuples out of only {} scored",
                profile.tuples_disconnected, profile.tuples_scored
            ),
        ));
    }
    for (name, secs) in [("plan_secs", profile.plan_secs), ("exec_secs", profile.exec_secs)] {
        if !secs.is_finite() || secs < 0.0 {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "profile-timings",
                format!("{name} is {secs}, expected a finite non-negative wall time"),
            ));
        }
    }
    finish(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::trace::span;
    use seda_olap::Registry;
    use seda_xmlstore::{parse_collection, DocId, PathId};

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![
            ("us.xml", "<country><name>United States</name><year>2006</year></country>"),
            ("mx.xml", "<country><name>Mexico</name><year>2003</year></country>"),
        ])
        .unwrap();
        SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap()
    }

    #[test]
    fn fresh_engine_passes_and_reports_verify_cost() {
        let e = engine();
        e.verify().unwrap();
        let verify = e.build_profile().spans.iter().find(|s| s.name == span::BUILD_VERIFY);
        assert!(verify.is_some_and(|s| s.wall_secs >= 0.0));
        assert!(e.build_profile().render().contains(span::BUILD_VERIFY));
    }

    #[test]
    fn corrupted_substrate_surfaces_through_engine_verify() {
        let mut e = engine();
        {
            let (_, _, _, graph) = e.substrates_mut();
            graph.corrupt_adj_offset(1, u32::MAX);
        }
        let violations = e.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.substrate == "datagraph"), "{violations:?}");
    }

    #[test]
    fn the_two_thread_audit_reports_what_verify_reports_in_its_order() {
        let mut e = engine();
        {
            let (collection, node_index, _, graph) = e.substrates_mut();
            collection.corrupt_document(DocId(1), |doc| doc.corrupt_node_path(1, PathId(0)));
            node_index.corrupt_posting_offset(1, u32::MAX);
            graph.corrupt_adj_offset(1, u32::MAX);
        }
        let violations = e.verify().unwrap_err();
        let mut substrates: Vec<&str> = violations.iter().map(|v| v.substrate).collect();
        substrates.dedup();
        assert_eq!(substrates, ["xmlstore", "textindex", "datagraph"], "{violations:?}");
        assert_eq!(e.audit(2), Err(violations));
    }

    #[test]
    fn exec_profile_consistency_checks() {
        verify_exec_profile(&ExecProfile::default()).unwrap();

        let bad_counters =
            ExecProfile { tuples_scored: 1, tuples_disconnected: 2, ..ExecProfile::default() };
        let violations = verify_exec_profile(&bad_counters).unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "profile-counters"));

        let bad_timings = ExecProfile { plan_secs: f64::NAN, ..ExecProfile::default() };
        let violations = verify_exec_profile(&bad_timings).unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "profile-timings"));
    }
}
