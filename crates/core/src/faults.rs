//! Deterministic fault injection for robustness tests.
//!
//! The engine's panic-isolation and error-propagation boundaries are only
//! trustworthy if they are exercised, so the query pipeline declares a small
//! catalog of **named fault sites** ([`FAULT_SITES`]) at its riskiest
//! transitions.  Behind the cfg-gated `failpoints` feature, tests arm a site
//! with a `FaultAction` (panic, typed error, or delay); the next time
//! execution reaches the site the action fires exactly once (arming is
//! one-shot) and the site disarms itself.  Without the feature the hooks
//! compile to no-ops, so production builds pay nothing.
//!
//! The sites:
//!
//! * `"parse"` — in [`crate::SedaEngine::build_from_sources`], inside the
//!   task that parses the tail of the source list, before its parse, at
//!   either thread count: at two that task runs on the second thread, so
//!   the site proves a panic there is contained; at one it runs after the
//!   head's parse, and its tail is empty;
//! * `"node-index-build"` — in every engine build, inside the node-index
//!   task, before `NodeIndex::build` runs; at two threads the task runs on
//!   the second thread, so the site proves a panic there is contained;
//! * `"oracle-build"` — in every engine build, on the calling thread,
//!   before `DataGraph::build` runs (and the connectivity oracle — the
//!   per-document cross-edge bit, the peel and the core labels — is built);
//! * `"plan"` — in the planner, before the request is lowered; planning is
//!   reached only through [`crate::SedaReader`] and runs inside its
//!   boundary, so a panic here is contained like one in execution;
//! * `"mid-search"` — inside the engine's one search function, before the
//!   Threshold-Algorithm loop runs.  It fires only when a search runs: a
//!   `TOPK` or `CONNECTIONS` that takes the search the other statement of its
//!   pair just ran on the same reader reaches no search and leaves the site
//!   armed (a repeated statement always searches).
//!
//! Sites on `Result` paths surface `FaultAction::Error` as
//! [`crate::SedaError::Internal`] directly; the site on an infallible path
//! (`"mid-search"`) surfaces both `Error` and `Panic` as a panic, which the
//! reader's `catch_unwind` boundary converts to the same typed `Internal`
//! error — proving the isolation layer, not bypassing it.

/// The catalog of named fault sites, in pipeline order.
pub const FAULT_SITES: &[&str] =
    &["parse", "node-index-build", "oracle-build", "plan", "mid-search"];

#[cfg(feature = "failpoints")]
mod armed {
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::Duration;

    /// What an armed fault site does when execution reaches it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultAction {
        /// Panic at the site, exercising the panic-isolation boundaries.
        Panic,
        /// Surface a typed `SedaError::Internal` from the site.
        Error,
        /// Sleep for the given duration before continuing (for deadline
        /// tests).
        Delay(Duration),
    }

    fn registry() -> &'static Mutex<Vec<(&'static str, FaultAction)>> {
        static REGISTRY: OnceLock<Mutex<Vec<(&'static str, FaultAction)>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Arms `site` with `action`.  One-shot: the next time execution reaches
    /// the site, the action fires and the site disarms itself.  Re-arming an
    /// already-armed site replaces its action.
    pub fn arm(site: &'static str, action: FaultAction) {
        let mut armed = registry().lock().unwrap_or_else(PoisonError::into_inner);
        armed.retain(|(s, _)| *s != site);
        armed.push((site, action));
    }

    /// Disarms every site (test teardown).
    pub fn disarm_all() {
        registry().lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Consumes the arming of `site`, if any.
    pub(super) fn take(site: &str) -> Option<FaultAction> {
        let mut armed = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let index = armed.iter().position(|(s, _)| *s == site)?;
        Some(armed.remove(index).1)
    }
}

#[cfg(feature = "failpoints")]
pub use armed::{arm, disarm_all, FaultAction};

/// Fires `site` on a `Result` path: an armed `Error` returns
/// [`crate::SedaError::Internal`], `Panic` panics, `Delay` sleeps.  A no-op
/// unless the `failpoints` feature is enabled and the site is armed.
pub(crate) fn fire(site: &'static str) -> Result<(), crate::SedaError> {
    #[cfg(feature = "failpoints")]
    if let Some(action) = armed::take(site) {
        match action {
            armed::FaultAction::Panic => panic!("injected fault at site {site:?}"),
            armed::FaultAction::Error => {
                return Err(crate::SedaError::Internal(format!("injected fault at site {site:?}")))
            }
            armed::FaultAction::Delay(d) => std::thread::sleep(d),
        }
    }
    let _ = site;
    Ok(())
}

/// Fires `site` on an infallible path: both armed `Panic` and `Error`
/// panic (the enclosing `catch_unwind` boundary converts the panic to
/// [`crate::SedaError::Internal`]), `Delay` sleeps.  A no-op unless the
/// `failpoints` feature is enabled and the site is armed.
pub(crate) fn fire_unchecked(site: &'static str) {
    #[cfg(feature = "failpoints")]
    if let Some(action) = armed::take(site) {
        match action {
            armed::FaultAction::Panic | armed::FaultAction::Error => {
                panic!("injected fault at site {site:?}")
            }
            armed::FaultAction::Delay(d) => std::thread::sleep(d),
        }
    }
    let _ = site;
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // The fault registry is process-global, so these tests touch only a
    // site name outside FAULT_SITES to avoid crosstalk with integration
    // suites (which run in their own processes anyway).
    #[test]
    fn arming_is_one_shot_and_rearming_replaces() {
        static SITE: &str = "unit-test-site";
        assert!(fire(SITE).is_ok(), "unarmed site is a no-op");
        arm(SITE, FaultAction::Error);
        arm(SITE, FaultAction::Delay(std::time::Duration::ZERO));
        assert!(fire(SITE).is_ok(), "re-arming replaced the error with a delay");
        assert!(fire(SITE).is_ok(), "arming is consumed by the first fire");
        arm(SITE, FaultAction::Error);
        assert!(matches!(fire(SITE), Err(crate::SedaError::Internal(_))));
        arm(SITE, FaultAction::Error);
        disarm_all();
        assert!(fire(SITE).is_ok());
    }
}
