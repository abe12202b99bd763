//! # seda-xmlstore
//!
//! Native XML document store underpinning the SEDA reproduction.  It plays the
//! role DB2 pureXML plays in the paper: it stores XML documents as preorder
//! node arenas with parent links (a node's Dewey order identifier is derived
//! from them on demand), interns element names and root-to-leaf *context*
//! paths, and supports retrieval of node content by node id.
//!
//! The store keeps only what it cannot derive: a context is interned as one
//! step below its parent's, and element nesting is capped at [`MAX_NESTING`]
//! so a hostile document gets a typed error instead of exhausting memory.
//!
//! The store is deliberately simple — an in-memory arena per document with
//! shared intern tables per collection — because the paper's algorithms only
//! need ordered node references, context lookup and content retrieval from the
//! storage layer.
//!
//! ```
//! use seda_xmlstore::{Collection, parse_into};
//!
//! let mut collection = Collection::new();
//! parse_into(&mut collection, "us.xml",
//!     "<country><name>United States</name><year>2006</year></country>").unwrap();
//! let year = collection.paths().get_str(collection.symbols(), "/country/year").unwrap();
//! let nodes = collection.nodes_with_path(year);
//! assert_eq!(collection.content(nodes[0]).unwrap(), "2006");
//! ```

pub mod audit;
mod collection;
mod dewey;
mod document;
mod error;
mod node;
mod parse;
mod path;
mod symbol;

pub use audit::{AuditResult, InvariantViolation};
pub use collection::Collection;
pub use dewey::DeweyId;
pub use document::{Document, DocumentBuilder, RelativeStep, MAX_NESTING};
pub use error::{Result, XmlStoreError};
pub use node::{DocId, Node, NodeId, NodeKind};
pub use parse::{parse_collection, parse_into};
pub use path::{LabelPath, PathId, PathTable};
pub use symbol::{Symbol, SymbolTable};

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use crate::{Collection, DeweyId, PathId, Symbol};

    /// Drives a builder through one random document: each `(op, label)`
    /// opens an element (ops 0–3, up to depth 30), closes one (4–5, never
    /// the root), adds an attribute (6) or text (7).  Four element labels make
    /// repeated labels and shared contexts common.
    fn build(builder: &mut crate::DocumentBuilder<'_>, ops: &[(u8, u8)]) -> crate::Result<()> {
        builder.start_element("root")?;
        let mut depth = 1;
        for &(op, label) in ops {
            match op {
                0..=3 if depth < 30 => {
                    builder.start_element(&format!("e{}", label % 4))?;
                    depth += 1;
                }
                4 | 5 if depth > 1 => {
                    builder.end_element()?;
                    depth -= 1;
                }
                6 => {
                    builder.attribute(&format!("a{}", label % 3), "v")?;
                }
                7 => builder.text("t")?,
                _ => {}
            }
        }
        (0..depth).try_for_each(|_| builder.end_element())
    }

    proptest! {
        /// Dewey IDs and contexts derived from the parent chain equal what
        /// storing them did: `1` at the root, a child's ID extends its
        /// parent's by its rank, IDs ascend in document order, the depth is
        /// the context's length, and `PathId`s follow the old rule of
        /// interning each node's full label list in document order.
        #[test]
        fn derived_dewey_ids_and_contexts_match_the_stored_model(
            documents in proptest::collection::vec(
                proptest::collection::vec((0u8..8, any::<u8>()), 0..300),
                1..4,
            ),
        ) {
            let mut collection = Collection::new();
            for (i, ops) in documents.iter().enumerate() {
                collection.add_document(format!("d{i}.xml"), |b| build(b, ops)).unwrap();
            }
            collection.verify().unwrap();
            let mut model: HashMap<Vec<Symbol>, PathId> = HashMap::new();
            for doc in collection.documents() {
                prop_assert_eq!(doc.dewey(0), DeweyId::root());
                let mut labels: Vec<Vec<Symbol>> = Vec::with_capacity(doc.len());
                let mut previous: Option<DeweyId> = None;
                for (i, node) in doc.iter() {
                    let dewey = doc.dewey(i);
                    let mut steps = Vec::new();
                    if let Some(parent) = node.parent {
                        let rank = doc.children(parent).iter().position(|&c| c == i).unwrap();
                        prop_assert_eq!(&dewey, &doc.dewey(parent).child(rank as u32 + 1));
                        steps = labels[parent as usize].clone();
                    }
                    steps.push(node.name);
                    let next = PathId(model.len() as u32);
                    prop_assert_eq!(node.path, *model.entry(steps.clone()).or_insert(next));
                    prop_assert_eq!(dewey.depth(), collection.paths().resolve(node.path).len());
                    prop_assert_eq!(dewey.depth(), steps.len());
                    if let Some(previous) = previous {
                        prop_assert!(previous < dewey, "{} !< {}", previous, dewey);
                    }
                    previous = Some(dewey);
                    labels.push(steps);
                }
            }
            prop_assert_eq!(collection.paths().len(), model.len());
        }

        /// The ordering must be a total order consistent with equality.
        #[test]
        fn dewey_ordering_is_consistent(
            a in proptest::collection::vec(1u32..20, 0..8),
            b in proptest::collection::vec(1u32..20, 0..8),
        ) {
            use std::cmp::Ordering;
            let extend = |ranks: &[u32]| ranks.iter().fold(DeweyId::root(), |d, &r| d.child(r));
            let (a, b) = (extend(&a), extend(&b));
            match a.cmp(&b) {
                Ordering::Equal => prop_assert_eq!(&a, &b),
                Ordering::Less => prop_assert!(b.cmp(&a) == Ordering::Greater),
                Ordering::Greater => prop_assert!(b.cmp(&a) == Ordering::Less),
            }
        }

        /// An ancestor's Dewey id always sorts before its descendants.
        #[test]
        fn ancestors_sort_before_descendants(
            a in proptest::collection::vec(1u32..20, 0..8),
            extra in proptest::collection::vec(1u32..20, 1..4),
        ) {
            let a = a.iter().fold(DeweyId::root(), |d, &r| d.child(r));
            let child = extra.iter().fold(a.clone(), |d, &r| d.child(r));
            prop_assert!(a.is_ancestor_of(&child));
            prop_assert!(a < child);
        }
    }
}
