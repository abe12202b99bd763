//! # seda-core
//!
//! SEDA — **S**earch, **E**xplore, **D**iscover and **A**nalyze — a
//! reproduction of the CIDR 2009 system for search-driven analysis of
//! heterogeneous XML data (Balmin, Colby, Curtmola, Li, Özcan).
//!
//! SEDA lets a user who does not know the schema of an XML repository start
//! from keyword-style *query terms*, disambiguate the *contexts*
//! (root-to-leaf paths) and *connections* (structural relationships) of the
//! matches with the help of result summaries, materialise the complete result
//! set, and derive a star schema (facts + dimensions) with its instantiation,
//! ready for OLAP-style aggregation.
//!
//! The crate ties together the substrates:
//! [`seda_xmlstore`] (storage), [`seda_textindex`] (full-text indexes),
//! [`seda_datagraph`] (the data graph), [`seda_dataguide`] (dataguide
//! summaries and connections), [`seda_topk`] (the Threshold-Algorithm top-k
//! unit), [`seda_twigjoin`] (complete-result twig evaluation) and
//! [`seda_olap`] (facts, dimensions, star schemas, cubes).
//!
//! # The unified query facade
//!
//! Every trip through the Fig. 4 pipeline is one **request → plan →
//! response** lifecycle: a [`SedaRequest`] (built fluently or parsed from
//! the textual front-end) is compiled by the planner into a [`QueryPlan`]
//! (inspectable via [`QueryPlan::explain`]) and executed into a
//! [`SedaResponse`] carrying the statement-shaped payload plus a unified
//! [`ExecProfile`].  Execution runs through per-thread [`SedaReader`]
//! handles that own their scratch buffers, so concurrent queries never
//! contend on shared engine state; [`SedaEngine::execute_batch`] fans a
//! batch of requests across a reader pool.  All errors share the
//! [`SedaError`] taxonomy.
//!
//! ```
//! use seda_core::{EngineConfig, SedaEngine, SedaSession};
//! use seda_olap::{BuildOptions, Registry};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![("us.xml",
//!     r#"<country><name>United States</name><year>2006</year>
//!        <economy><import_partners>
//!          <item><trade_country>China</trade_country><percentage>15</percentage></item>
//!        </import_partners></economy></country>"#)]).unwrap();
//! let engine = SedaEngine::build(collection, Registry::factbook_defaults(),
//!                                EngineConfig::default()).unwrap();
//!
//! // One textual request runs the whole pipeline through a reader handle.
//! let mut reader = engine.reader();
//! let response = reader.execute_text(
//!     r#"CUBE import-trade-percentage BY import-country AGG sum
//!        FOR (*, "United States") AND (trade_country, *) AND (percentage, *)"#).unwrap();
//! assert!(response.cube().unwrap().cell(&["China"]).is_some());
//!
//! // The stateful session drives the same facade interactively.
//! let mut session = SedaSession::new(&engine);
//! session.submit_text(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#).unwrap();
//! let build = session.build_cube(&BuildOptions::default()).unwrap();
//! assert!(build.schema.fact("import-trade-percentage").is_some());
//! ```

pub mod audit;
pub mod engine;
pub mod error;
pub mod faults;
pub mod govern;
pub mod metrics;
pub(crate) mod parallel;
pub mod plan;
pub mod prepared;
pub mod query;
pub mod reader;
pub mod request;
pub mod response;
pub mod session;
pub mod summaries;
pub mod trace;

pub use audit::verify_exec_profile;
pub use engine::{BuildProfile, EngineConfig, PhaseProfile, SedaEngine};
pub use error::SedaError;
pub use govern::{Budget, CancelToken, RequestContext, Stopwatch};
pub use metrics::{Histogram, MetricsRegistry};
pub use parallel::WorkerPanic;
pub use plan::{PlanStep, QueryPlan};
pub use prepared::PreparedStatement;
pub use query::{ContextSpec, QueryError, QueryTerm, SedaQuery};
pub use reader::SedaReader;
pub use request::{RequestBuilder, SedaRequest, Statement};
pub use response::{ExecProfile, ResponsePayload, SedaResponse};
pub use session::{SedaSession, Session, SessionStage};
pub use summaries::{ConnectionSummary, ContextBucket, ContextSelections, ContextSummary};
pub use trace::{SpanCounters, SpanRecord, Tracer};

// Re-export the crates a downstream application typically needs alongside the
// engine, so `seda-core` works as a single entry point.
pub use seda_datagraph;
pub use seda_dataguide;
pub use seda_olap;
pub use seda_textindex;
pub use seda_topk;
pub use seda_twigjoin;
pub use seda_xmlstore;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::query::{ContextSpec, SedaQuery};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The query parser accepts any combination of well-formed terms and
        /// preserves the number of terms.
        #[test]
        fn parser_preserves_term_count(
            contexts in proptest::collection::vec("[a-z_]{1,10}", 1..5),
            keywords in proptest::collection::vec("[a-z]{1,8}", 1..5),
        ) {
            let n = contexts.len().min(keywords.len());
            let text = (0..n)
                .map(|i| format!("({}, {})", contexts[i], keywords[i]))
                .collect::<Vec<_>>()
                .join(" AND ");
            let parsed = SedaQuery::parse(&text).unwrap();
            prop_assert_eq!(parsed.len(), n);
        }

        /// Tag wildcard matching: a pattern constructed from a name by
        /// replacing its middle with `*` always matches that name.
        #[test]
        fn wildcard_from_name_matches_name(name in "[a-z_]{2,12}") {
            let pattern = format!("{}*{}", &name[..1], &name[name.len()-1..]);
            let spec = ContextSpec::parse(&pattern);
            if let ContextSpec::Tag(t) = spec {
                prop_assert!(crate::query::ContextSpec::parse(&t) != ContextSpec::Any);
            }
            // Matching is exercised through the public parse + a tiny collection.
            let mut c = seda_xmlstore::Collection::new();
            c.add_document("d.xml", |b| {
                b.start_element(&name)?;
                b.text("x")?;
                b.end_element()?;
                Ok(())
            }).unwrap();
            let root = seda_xmlstore::NodeId::new(seda_xmlstore::DocId(0), 0);
            prop_assert!(ContextSpec::parse(&pattern).matches(&c, root));
        }
    }
}
