//! Structural invariant auditing — the engine-level aggregation of the
//! per-substrate `seda-audit` layers.
//!
//! [`SedaEngine::verify`] chains the substrate checkers (collection, node
//! index, context index, data graph, dataguides, metrics) and returns every
//! violation found, so one call audits the whole engine.  Each substrate
//! documents its own invariant catalog in its `audit` module; this module
//! adds the engine-local classes:
//!
//! # Invariant catalog (substrate `core`)
//!
//! | class | invariant |
//! |---|---|
//! | `profile-counters` | [`ExecProfile`] counters are mutually consistent (disconnected ≤ scored, rows ≤ budget when accounted) |
//! | `profile-timings` | [`ExecProfile`] wall times are finite and non-negative |
//!
//! Every [`SedaEngine::build`] runs `verify()` before handing the engine to
//! the caller and records the cost in
//! [`crate::BuildProfile::verify_ms`]; `seda-bench`'s `audit` binary runs the
//! same check over every datagen corpus shape from the command line.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};

use crate::engine::SedaEngine;
use crate::response::ExecProfile;

const SUBSTRATE: &str = "core";

impl SedaEngine {
    /// Verifies every structural invariant of the engine's frozen substrates:
    /// the collection's Dewey order and tree linkage, both full-text indexes'
    /// dictionary/postings/CSR invariants, the data graph's adjacency
    /// symmetry, component partition and connectivity labels, and the
    /// dataguide summary's path index and document assignment.  Returns every
    /// violation found rather than stopping at the first.
    ///
    /// A freshly built engine always passes; [`SedaEngine::build`] enforces
    /// this before returning and reports the cost in
    /// [`crate::BuildProfile::verify_ms`].
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        let mut take = |result: AuditResult| {
            if let Err(mut v) = result {
                violations.append(&mut v);
            }
        };
        take(self.collection().verify());
        take(self.node_index().verify());
        take(self.context_index().verify());
        take(self.graph().verify());
        take(self.guides().verify());
        take(self.metrics().verify());
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
        &mut seda_dataguide::DataGuideSet,
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
    if profile.budget_spent > 0 && (profile.rows as u64) > profile.budget_spent {
        violations.push(InvariantViolation::new(
            SUBSTRATE,
            "profile-counters",
            format!(
                "{} result rows exceed the {} accounted budget units",
                profile.rows, profile.budget_spent
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
    use seda_olap::Registry;
    use seda_xmlstore::parse_collection;

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
        assert!(e.build_profile().verify_ms >= 0.0);
        assert!(e.build_profile().render().contains("audit"));
    }

    #[test]
    fn corrupted_substrate_surfaces_through_engine_verify() {
        let mut e = engine();
        {
            let (_, _, _, graph, _) = e.substrates_mut();
            graph.corrupt_adj_offset(1, u32::MAX);
        }
        let violations = e.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.substrate == "datagraph"), "{violations:?}");
    }

    #[test]
    fn exec_profile_consistency_checks() {
        verify_exec_profile(&ExecProfile::default()).unwrap();

        let bad_counters = ExecProfile {
            tuples_scored: 1,
            tuples_disconnected: 2,
            budget_spent: 10,
            ..ExecProfile::default()
        };
        let violations = verify_exec_profile(&bad_counters).unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "profile-counters"));

        let bad_timings = ExecProfile { plan_secs: f64::NAN, ..ExecProfile::default() };
        let violations = verify_exec_profile(&bad_timings).unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "profile-timings"));
    }
}
