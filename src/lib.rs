//! # seda
//!
//! Umbrella crate of the SEDA reproduction (Balmin et al., CIDR 2009):
//! re-exports the engine crates so applications, the repository-level
//! integration tests and the examples can depend on a single crate.
//!
//! See the workspace `README.md` for the crate dependency DAG and the
//! engine build.

pub use seda_core::{
    seda_datagraph as datagraph, seda_dataguide as dataguide, seda_olap as olap,
    seda_textindex as textindex, seda_topk as topk, seda_twigjoin as twigjoin,
    seda_xmlstore as xmlstore,
};
pub use seda_core::{
    BuildProfile, ConnectionSummary, ContextBucket, ContextSelections, ContextSpec, ContextSummary,
    EngineConfig, ExecProfile, PlanStep, QueryError, QueryPlan, QueryTerm, RequestBuilder,
    ResponsePayload, SedaEngine, SedaError, SedaQuery, SedaReader, SedaRequest, SedaResponse,
    SedaSession, SessionStage, Statement,
};
