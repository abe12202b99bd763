//! # seda
//!
//! Umbrella crate of the SEDA reproduction (Balmin et al., CIDR 2009):
//! re-exports the engine and each substrate crate (the one re-export layer:
//! `seda-core` re-exports none of them) so applications, the
//! repository-level integration tests and the examples can depend on a
//! single crate.
//!
//! See the workspace `README.md` for the crate dependency DAG and the
//! engine build.

pub use seda_core::{
    BuildProfile, ConnectionSummary, ContextBucket, ContextSelections, ContextSpec, ContextSummary,
    EngineConfig, ExecProfile, QueryTerm, RequestBuilder, ResponsePayload, SedaEngine, SedaError,
    SedaQuery, SedaReader, SedaRequest, SedaResponse, SedaSession, SessionStage, Statement,
};
pub use seda_datagraph as datagraph;
pub use seda_dataguide as dataguide;
pub use seda_olap as olap;
pub use seda_textindex as textindex;
pub use seda_topk as topk;
pub use seda_twigjoin as twigjoin;
pub use seda_xmlstore as xmlstore;
