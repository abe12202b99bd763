//! Error type for the XML store.

use std::fmt;

/// Errors produced while building, parsing or querying the XML store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlStoreError {
    /// XML text could not be parsed.
    Parse(String),
    /// The parsed document had no root element.
    EmptyDocument,
    /// A node id referenced a document that does not exist in the collection.
    UnknownDocument(u32),
    /// A node id referenced a node ordinal that does not exist in its document.
    UnknownNode {
        /// Document id the node was looked up in.
        doc: u32,
        /// Node ordinal that was out of range.
        node: u32,
    },
    /// A document nests elements deeper than [`crate::MAX_NESTING`] levels.
    NestingTooDeep {
        /// Source URI or generated name of the refused document.
        document: String,
        /// The nesting limit it exceeded.
        limit: usize,
    },
    /// A builder operation was applied in an invalid state (e.g. `end_element`
    /// without a matching `start_element`).
    BuilderState(String),
}

impl fmt::Display for XmlStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlStoreError::Parse(msg) => write!(f, "XML parse error: {msg}"),
            XmlStoreError::EmptyDocument => write!(f, "document has no root element"),
            XmlStoreError::UnknownDocument(d) => write!(f, "unknown document id {d}"),
            XmlStoreError::UnknownNode { doc, node } => {
                write!(f, "unknown node {node} in document {doc}")
            }
            XmlStoreError::NestingTooDeep { document, limit } => {
                write!(f, "document {document} nests elements deeper than {limit} levels")
            }
            XmlStoreError::BuilderState(msg) => write!(f, "document builder misuse: {msg}"),
        }
    }
}

impl std::error::Error for XmlStoreError {}

/// Convenient result alias used throughout the store.
pub type Result<T> = std::result::Result<T, XmlStoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let cases: Vec<(XmlStoreError, &str)> = vec![
            (XmlStoreError::Parse("boom".into()), "XML parse error: boom"),
            (XmlStoreError::EmptyDocument, "no root element"),
            (XmlStoreError::UnknownDocument(3), "unknown document id 3"),
            (XmlStoreError::UnknownNode { doc: 1, node: 2 }, "unknown node 2 in document 1"),
            (XmlStoreError::BuilderState("bad".into()), "builder misuse"),
            (
                XmlStoreError::NestingTooDeep { document: "deep.xml".into(), limit: 256 },
                "document deep.xml nests elements deeper than 256 levels",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err} should contain {needle}");
        }
    }
}
