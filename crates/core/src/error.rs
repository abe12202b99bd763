//! The unified error taxonomy of the query facade.
//!
//! Every fallible operation on the public query path — parsing a textual
//! request, planning it, executing it, or driving a [`crate::SedaSession`]
//! out of order — returns a [`SedaError`].  The substrate crates keep their
//! own error types ([`TwigParseError`], [`CubeError`],
//! [`XmlStoreError`], …); `From` conversions lift them into the taxonomy so
//! `?` works across every layer of the Fig. 4 pipeline.

use std::fmt;

use seda_olap::CubeError;
use seda_twigjoin::TwigParseError;
use seda_xmlstore::XmlStoreError;

use crate::session::SessionStage;

/// Everything that can go wrong on the SEDA query path.
#[derive(Debug, Clone, PartialEq)]
pub enum SedaError {
    /// The request text does not follow the grammar of [`crate::grammar`];
    /// the message says what was expected and at which byte.
    Parse(String),
    /// A twig path expression failed to compile.
    Twig(TwigParseError),
    /// A session operation was invoked in the wrong stage of the Fig. 6
    /// control flow (e.g. refining contexts before submitting a query).
    Stage {
        /// The operation that was attempted.
        operation: &'static str,
        /// What the operation needs to have happened first.
        required: &'static str,
        /// The stage the session was actually in.
        stage: SessionStage,
    },
    /// The statement requires query terms but the request carries none.
    MissingQuery {
        /// The statement that was attempted.
        statement: &'static str,
    },
    /// A root-to-leaf path string does not exist in the collection.
    UnknownPath(String),
    /// A context selection referenced a query term that does not exist.
    UnknownTerm {
        /// The referenced term index.
        term: usize,
        /// How many terms the query has.
        terms: usize,
    },
    /// A cube statement referenced a fact table the star schema does not
    /// contain.
    UnknownFact(String),
    /// The cube engine rejected the aggregation.
    Cube(CubeError),
    /// The storage layer failed (parse error, unknown node, …).
    Store(XmlStoreError),
    /// A configured limit or a per-request [`crate::Budget`] ceiling was
    /// exceeded; refine the query, raise the budget, or opt into degraded
    /// (partial-prefix) responses instead of silently clipping the answer.
    Limit {
        /// The exhausted resource (e.g. `"complete-result tuples"`,
        /// `"deadline"`, `"label probes"`).
        resource: &'static str,
        /// How much of the resource was consumed when the request stopped
        /// (for `"deadline"`, elapsed milliseconds).
        spent: usize,
        /// The configured ceiling (for `"deadline"`, budget milliseconds).
        budget: usize,
    },
    /// A worker or query path panicked; the panic was contained at the
    /// governance boundary and the engine remains fully serviceable.
    Internal(String),
    /// The request was cancelled through its [`crate::CancelToken`].
    Cancelled,
    /// A [`crate::PreparedStatement`] was executed through a reader of an
    /// engine other than the one that prepared it; its resolved paths and
    /// term lists are meaningless there.
    ForeignPlan,
}

impl fmt::Display for SedaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SedaError::Parse(message) => write!(f, "malformed SEDA query: {message}"),
            SedaError::Twig(e) => write!(f, "{e}"),
            SedaError::Stage { operation, required, stage } => {
                write!(f, "{operation} requires {required}, but the session stage is {stage:?}")
            }
            SedaError::MissingQuery { statement } => {
                write!(f, "{statement} requires query terms, but the request has none")
            }
            SedaError::UnknownPath(path) => {
                write!(f, "path {path:?} does not exist in the collection")
            }
            SedaError::UnknownTerm { term, terms } => {
                write!(f, "selection references term {term}, but the query has {terms} term(s)")
            }
            SedaError::UnknownFact(fact) => {
                write!(f, "the derived star schema has no fact table {fact:?}")
            }
            SedaError::Cube(e) => write!(f, "{e}"),
            SedaError::Store(e) => write!(f, "{e}"),
            SedaError::Limit { resource, spent, budget } => {
                write!(
                    f,
                    "{resource} reached {spent}, exceeding the configured limit of {budget}; \
                     refine the query or raise the budget"
                )
            }
            SedaError::Internal(detail) => {
                write!(f, "internal error (contained; the engine remains serviceable): {detail}")
            }
            SedaError::Cancelled => write!(f, "request cancelled by its caller"),
            SedaError::ForeignPlan => write!(
                f,
                "the plan was prepared by another engine; prepare it again through this engine"
            ),
        }
    }
}

impl From<seda_topk::LimitBreach> for SedaError {
    fn from(b: seda_topk::LimitBreach) -> Self {
        SedaError::Limit {
            resource: b.resource,
            spent: b.spent as usize,
            budget: b.budget as usize,
        }
    }
}

impl std::error::Error for SedaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SedaError::Twig(e) => Some(e),
            SedaError::Cube(e) => Some(e),
            SedaError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TwigParseError> for SedaError {
    fn from(e: TwigParseError) -> Self {
        SedaError::Twig(e)
    }
}

impl From<CubeError> for SedaError {
    fn from(e: CubeError) -> Self {
        SedaError::Cube(e)
    }
}

impl From<XmlStoreError> for SedaError {
    fn from(e: XmlStoreError) -> Self {
        SedaError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_renders_a_message() {
        let cases: Vec<(SedaError, &str)> = vec![
            (SedaError::Parse("x".into()), "malformed SEDA query"),
            (
                SedaError::Stage {
                    operation: "complete_results",
                    required: "a submitted query",
                    stage: SessionStage::Empty,
                },
                "requires a submitted query",
            ),
            (SedaError::MissingQuery { statement: "TOPK" }, "requires query terms"),
            (SedaError::UnknownPath("/a/b".into()), "does not exist"),
            (SedaError::UnknownTerm { term: 3, terms: 2 }, "term 3"),
            (SedaError::UnknownFact("gdp".into()), "no fact table"),
            (SedaError::Cube(CubeError::UnknownMeasure("m".into())), "unknown measure"),
            (SedaError::Store(XmlStoreError::EmptyDocument), "no root element"),
            (
                SedaError::Limit { resource: "tuples", spent: 99, budget: 10 },
                "exceeding the configured limit",
            ),
            (SedaError::Internal("worker panicked".into()), "remains serviceable"),
            (SedaError::Cancelled, "cancelled"),
            (SedaError::ForeignPlan, "prepared by another engine"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} should contain {needle:?}");
        }
    }

    #[test]
    fn from_conversions_wrap_substrate_errors() {
        let e: SedaError = CubeError::UnknownDimension("d".into()).into();
        assert!(matches!(e, SedaError::Cube(_)));
        let e: SedaError = XmlStoreError::EmptyDocument.into();
        assert!(matches!(e, SedaError::Store(_)));
        let e: SedaError = seda_twigjoin::TwigPattern::parse("").unwrap_err().into();
        assert!(matches!(e, SedaError::Twig(_)));
        let e: SedaError =
            seda_topk::LimitBreach { resource: "label probes", spent: 5, budget: 1 }.into();
        assert!(matches!(e, SedaError::Limit { resource: "label probes", spent: 5, budget: 1 }));
    }

    #[test]
    fn wrapped_errors_expose_their_source() {
        use std::error::Error;
        let err = SedaError::Cube(CubeError::UnknownMeasure("m".into()));
        assert!(err.source().is_some());
        let err = SedaError::UnknownPath("/x".into());
        assert!(err.source().is_none());
    }
}
