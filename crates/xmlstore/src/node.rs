//! Node and node-id types.

use crate::path::PathId;
use crate::symbol::Symbol;

/// Identifier of a document within a [`crate::collection::Collection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    /// Raw index of the document in its collection.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Globally unique node reference: document plus node ordinal within the
/// document's node arena.  Node ordinals are assigned in document order, so
/// comparing two `NodeId`s of the same document compares document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Owning document.
    pub doc: DocId,
    /// Ordinal of the node within the document (pre-order / document order).
    pub node: u32,
}

impl NodeId {
    /// Builds a node id from raw parts.
    pub fn new(doc: DocId, node: u32) -> Self {
        NodeId { doc, node }
    }
}

/// Kind of a data node.  SEDA treats element-attribute relationships as a
/// special case of parent/child (footnote 6 of the paper), so attributes are
/// ordinary nodes with [`NodeKind::Attribute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An XML element.
    Element,
    /// An XML attribute, modelled as a child node of its owning element.
    Attribute,
}

/// A stored data node.
///
/// Text content is stored directly on the owning element/attribute node
/// rather than as separate text nodes: SEDA's `content(n)` is the
/// concatenation of all descendant text, which the store computes by walking
/// the subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Element or attribute name.
    pub name: Symbol,
    /// Element vs attribute.
    pub kind: NodeKind,
    /// Parent ordinal within the same document (`None` for the root).
    pub parent: Option<u32>,
    /// Child ordinals in document order (attributes first, then sub-elements).
    pub children: Vec<u32>,
    /// Immediate text content of this node (not including descendants).
    pub text: Option<String>,
    /// Interned root-to-leaf label path (the node's *context*).
    pub path: PathId,
}

impl Node {
    /// True for leaf nodes (no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ordering_follows_document_order_within_a_doc() {
        let d = DocId(0);
        let a = NodeId::new(d, 1);
        let b = NodeId::new(d, 5);
        assert!(a < b);
    }

    #[test]
    fn node_id_ordering_groups_by_document_first() {
        let a = NodeId::new(DocId(0), 100);
        let b = NodeId::new(DocId(1), 1);
        assert!(a < b);
    }
}
