//! Dewey order identifiers for XML nodes.
//!
//! SEDA references XML nodes by Dewey IDs (Tatarinov et al., SIGMOD 2002): the
//! root of a document is `1`, its i-th child is `1.i`, and so on.  A Dewey ID
//! encodes the full ancestor chain of a node, so document order is the
//! lexicographic order of the component vectors and ancestor/descendant tests
//! are prefix tests.
//!
//! The store keeps no Dewey ID: nodes sit in document order with parent links,
//! so [`crate::Document::dewey`] derives one on demand from the parent chain.
//! The twig join compares node ordinals instead, which order nodes the same
//! way (the audit's `preorder` class).

use std::cmp::Ordering;
use std::fmt;

/// A Dewey order identifier: the path of 1-based child ordinals from the
/// document root down to a node.  The root element of every document is `[1]`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DeweyId {
    components: Vec<u32>,
}

impl DeweyId {
    /// Builds a Dewey ID from its components, root first; the list is never
    /// empty.
    pub(crate) fn from_components(components: Vec<u32>) -> Self {
        DeweyId { components }
    }

    /// Depth of the node: the root element has depth 1.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// True iff `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.components.len() > self.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True iff `self` is the parent of `other`.
    pub fn is_parent_of(&self, other: &DeweyId) -> bool {
        other.components.len() == self.components.len() + 1
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True iff `self` equals `other` or is an ancestor of `other`.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        self == other || self.is_ancestor_of(other)
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.components {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeweyId({self})")
    }
}

#[cfg(test)]
impl DeweyId {
    /// Dewey ID of a document root element (`1`).
    pub(crate) fn root() -> Self {
        DeweyId { components: vec![1] }
    }

    /// Dewey ID of the `ordinal`-th (1-based) child of this node.
    pub(crate) fn child(&self, ordinal: u32) -> Self {
        let mut components = self.components.clone();
        components.push(ordinal);
        DeweyId { components }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dewey(components: &[u32]) -> DeweyId {
        DeweyId::from_components(components.to_vec())
    }

    #[test]
    fn root_has_depth_one() {
        let r = DeweyId::root();
        assert_eq!(r.depth(), 1);
        assert_eq!(r.to_string(), "1");
    }

    #[test]
    fn child_extends_by_one_component() {
        let n = DeweyId::root().child(2).child(5);
        assert_eq!(n.to_string(), "1.2.5");
        assert_eq!(n.depth(), 3);
        assert_eq!(n, dewey(&[1, 2, 5]));
    }

    #[test]
    fn ancestor_descendant_tests() {
        let a = DeweyId::root().child(2);
        let b = a.child(3).child(1);
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a), "ancestor relation is strict");
        assert!(a.is_ancestor_or_self_of(&a));
        assert!(DeweyId::root().is_ancestor_of(&b));
    }

    #[test]
    fn parent_relation_is_exactly_one_level() {
        let a = DeweyId::root().child(2);
        let child = a.child(7);
        let grandchild = child.child(1);
        assert!(a.is_parent_of(&child));
        assert!(!a.is_parent_of(&grandchild));
        assert!(!a.is_parent_of(&a));
    }

    #[test]
    fn document_order_is_lexicographic() {
        let mut ids =
            [dewey(&[1, 2, 1]), dewey(&[1, 1]), dewey(&[1, 10]), dewey(&[1, 2]), dewey(&[1])];
        ids.sort();
        let rendered: Vec<String> = ids.iter().map(|d| d.to_string()).collect();
        assert_eq!(rendered, vec!["1", "1.1", "1.2", "1.2.1", "1.10"]);
    }
}
