//! Prepared statements: plan once, execute many.
//!
//! [`SedaReader::prepare`](crate::SedaReader::prepare), the one way to plan
//! a request without running it, lowers a
//! [`SedaRequest`](crate::SedaRequest) into its crate-private plan and wraps
//! it in a [`PreparedStatement`] that additionally owns what a single
//! execution would rebuild from scratch: the materialized sorted posting
//! lists of the search terms and their component partition.  The plan is
//! what [`PreparedStatement::explain`] renders, and what the request's
//! `EXPLAIN` form answers with.  Re-executing a
//! prepared statement skips parsing, validation, context resolution, sorted
//! access resolution and partitioning; the join then runs exactly as a cold
//! one, so the payload — every counter included — is byte-identical to a
//! fresh [`execute`](crate::SedaReader::execute).
//!
//! ```
//! use seda_core::{EngineConfig, SedaEngine, SedaRequest};
//! use seda_olap::Registry;
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![("us.xml",
//!     r#"<country><name>United States</name><year>2006</year></country>"#)]).unwrap();
//! let engine = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
//! let mut reader = engine.reader();
//! let request = SedaRequest::parse(r#"TOPK 5 FOR (name, "United States")"#).unwrap();
//! let mut prepared = reader.prepare(&request).unwrap();
//! for _ in 0..3 {
//!     let response = prepared.execute(&mut reader).unwrap();
//!     assert_eq!(response.top_k().unwrap().tuples.len(), 1);
//! }
//! assert_eq!(prepared.executions(), 3);
//! ```

use seda_topk::MaterializedTerms;

use crate::error::SedaError;
use crate::govern::RequestContext;
use crate::plan::QueryPlan;
use crate::reader::SedaReader;
use crate::request::Statement;
use crate::response::SedaResponse;

/// A compiled, reusable statement: the lowered plan plus the materialized
/// term lists and their component partition, resolved once.
///
/// Prepared statements are engine-scoped but reader-agnostic: prepare once,
/// then execute through any reader of the same engine (a reader of another
/// engine refuses it with [`SedaError::ForeignPlan`]).
pub struct PreparedStatement {
    pub(crate) plan: QueryPlan,
    /// Sorted posting lists of the plan's search terms, resolved once at
    /// prepare time (`None` for statements without a search phase).
    pub(crate) materialized: Option<MaterializedTerms>,
    pub(crate) executions: u64,
}

impl PreparedStatement {
    /// The plan transcript (header and numbered steps), the one a fresh
    /// `EXPLAIN` of the statement answers with.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// How many times this statement has executed successfully.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Re-parameterizes `k` without replanning, for the statement shapes
    /// that carry one (`TOPK k`, `CONNECTIONS k`).  Only the result bound
    /// changes, so the materialized term lists stay valid.  Returns `false`
    /// (and changes nothing) for statements without a `k` parameter.
    pub fn set_k(&mut self, k: usize) -> bool {
        match &mut self.plan.statement {
            Statement::TopK { k: slot } | Statement::ConnectionSummary { k: slot } => *slot = k,
            _ => return false,
        }
        true
    }

    /// Executes this statement through a reader of the same engine
    /// (ungoverned; see [`PreparedStatement::execute_governed`]).
    pub fn execute(&mut self, reader: &mut SedaReader<'_>) -> Result<SedaResponse, SedaError> {
        self.execute_governed(reader, &RequestContext::unlimited())
    }

    /// Executes this statement under a per-request [`RequestContext`], as
    /// one request: governed, panic-contained and recorded in the engine's
    /// metrics exactly like [`SedaReader::execute_governed`].
    pub fn execute_governed(
        &mut self,
        reader: &mut SedaReader<'_>,
        ctx: &RequestContext,
    ) -> Result<SedaResponse, SedaError> {
        reader.execute_prepared_governed(self, ctx)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{EngineConfig, SedaEngine};
    use crate::govern::{Budget, RequestContext};
    use crate::request::SedaRequest;
    use seda_olap::Registry;
    use seda_xmlstore::parse_collection;

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "mx.xml",
                r#"<country><name>Mexico</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    #[test]
    fn prepared_execution_matches_fresh_execution() {
        let e = engine();
        let mut reader = e.reader();
        let texts = [
            "TOPK 5 FOR (trade_country, *) AND (percentage, *)",
            "CONTEXTS FOR (trade_country, *)",
            "CONNECTIONS 5 FOR (trade_country, *) AND (percentage, *)",
            "RESULTS FOR (trade_country, *) AND (percentage, *)",
            "TWIG /country/economy//trade_country",
        ];
        for text in texts {
            let request = SedaRequest::parse(text).unwrap();
            let fresh = reader.execute(&request).unwrap();
            let mut prepared = reader.prepare(&request).unwrap();
            for _ in 0..3 {
                let reused = prepared.execute(&mut reader).unwrap();
                assert_eq!(reused.payload, fresh.payload, "{text}");
            }
            assert_eq!(prepared.executions(), 3, "{text}");
        }
    }

    #[test]
    fn set_k_reparameterizes_without_replanning() {
        let e = engine();
        let mut reader = e.reader();
        let mut prepared = reader
            .prepare(
                &SedaRequest::parse("TOPK 1 FOR (trade_country, *) AND (percentage, *)").unwrap(),
            )
            .unwrap();
        assert_eq!(prepared.execute(&mut reader).unwrap().top_k().unwrap().tuples.len(), 1);
        assert!(prepared.set_k(3));
        let widened = prepared.execute(&mut reader).unwrap();
        let fresh = reader
            .execute(
                &SedaRequest::parse("TOPK 3 FOR (trade_country, *) AND (percentage, *)").unwrap(),
            )
            .unwrap();
        assert_eq!(widened.payload, fresh.payload);
        assert!(prepared.explain().contains("threshold-algorithm rank join: k=3"));
        // Statements without a k parameter refuse the re-parameterization.
        let mut twig = reader.prepare(&SedaRequest::parse("TWIG /country/name").unwrap()).unwrap();
        assert!(!twig.set_k(3));
    }

    #[test]
    fn set_k_on_one_term_matches_a_fresh_plan_on_both_sides_of_the_candidate_bound() {
        let collection = parse_collection(vec![(
            "north.xml",
            r#"<region><name>United States</name><name>Canada</name><name>Mexico</name></region>"#,
        )])
        .unwrap();
        let e = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
        let mut reader = e.reader();
        let mut prepared =
            reader.prepare(&SedaRequest::parse("TOPK 1 FOR (name, *)").unwrap()).unwrap();
        let ctx = RequestContext::new(Budget::unlimited().with_max_candidates(2)).allow_degraded();
        // k=5 passes the candidate ceiling of 2, k=1 does not: the one join
        // serves both, and the transcript only changes its k.
        for k in [5usize, 1, 5] {
            assert!(prepared.set_k(k));
            assert!(prepared.explain().contains(&format!("threshold-algorithm rank join: k={k}")));
            let request = SedaRequest::parse(&format!("TOPK {k} FOR (name, *)")).unwrap();
            let explained = reader.execute_text(&format!("EXPLAIN {}", request.render()));
            let explained = explained.unwrap();
            assert_eq!(Some(prepared.explain().as_str()), explained.explain_transcript(), "k={k}");
            let fresh = reader.execute_governed(&request, &ctx).unwrap();
            let replayed = prepared.execute_governed(&mut reader, &ctx).unwrap();
            assert_eq!(replayed.payload, fresh.payload, "k={k}");
            assert_eq!((replayed.profile.degraded, fresh.profile.degraded), (k == 5, k == 5));
        }
    }
}
