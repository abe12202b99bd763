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
//! [`seda_datagraph`] (the data graph), [`seda_dataguide`] (instance-level
//! connection discovery, and the dataguides Table 1 is derived from on
//! request — the engine builds and keeps none), [`seda_topk`] (the
//! Threshold-Algorithm top-k unit), [`seda_twigjoin`] (complete-result twig
//! evaluation) and [`seda_olap`] (facts, dimensions, star schemas, cubes).
//! The engine itself holds three index substrates over the store: the node
//! index, the context index and the data graph.  This crate does not
//! re-export the substrate crates: depend on the ones you name, or on the
//! `seda` umbrella crate, which re-exports each of them once.
//!
//! # The unified query facade
//!
//! Every trip through the Fig. 4 pipeline is one **request → plan →
//! response** lifecycle: a [`SedaRequest`] (built fluently or parsed from
//! the textual front-end) is lowered by the planner into a plan — a
//! crate-private record, reached only through [`SedaReader`], that the
//! executor runs and the request's `EXPLAIN` form renders — and executed
//! into a [`SedaResponse`] carrying the statement-shaped payload plus a unified
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

mod audit;
mod engine;
mod error;
pub mod faults;
mod govern;
mod grammar;
mod metrics;
pub(crate) mod parallel;
mod plan;
mod prepared;
mod query;
mod reader;
mod request;
mod response;
mod session;
mod summaries;
pub mod trace;

pub use audit::verify_exec_profile;
pub use engine::{BuildProfile, EngineConfig, SedaEngine};
pub use error::SedaError;
pub use govern::{Budget, CancelToken, RequestContext, Stopwatch};
pub use metrics::{Histogram, MetricsRegistry};
pub use prepared::PreparedStatement;
pub use query::{ContextSpec, QueryTerm, SedaQuery};
pub use reader::SedaReader;
pub use request::{RequestBuilder, SedaRequest, Statement};
pub use response::{ExecProfile, ResponsePayload, SedaResponse};
pub use session::{SedaSession, SessionStage};
pub use summaries::{ConnectionSummary, ContextBucket, ContextSelections, ContextSummary};
pub use trace::{SpanCounters, SpanRecord};

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

        /// A search of bare words parses to the keyword bag of those words.
        #[test]
        fn parser_accepts_keyword_bags(
            words in proptest::collection::vec(
                "[a-z]{1,8}".prop_filter("operator", |w: &String| !["and", "or", "not"].contains(&w.as_str())),
                1..5,
            ),
        ) {
            let parsed = SedaQuery::parse(&format!("(a, {})", words.join(" "))).unwrap();
            prop_assert_eq!(&parsed.terms[0].search, &seda_textindex::FullTextQuery::Keywords(words));
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
            let allowed = ContextSpec::parse(&pattern).allowed_paths(&c).expect("a tag restricts");
            prop_assert!(allowed.contains(&c.context(root).unwrap()));
        }
    }
}
