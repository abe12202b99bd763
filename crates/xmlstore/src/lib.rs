//! # seda-xmlstore
//!
//! Native XML document store underpinning the SEDA reproduction.  It plays the
//! role DB2 pureXML plays in the paper: it stores XML documents as preorder
//! node arenas with parent links, interns element names and root-to-leaf
//! *context* paths, and supports retrieval of node content by node id.
//!
//! Structure is read one way: a node's preorder ordinal is its place in
//! Dewey order (the node reference of Sec. 7, checked by the audit's
//! `preorder` class), and its context is an interned [`PathId`] whose
//! [`LabelPath::steps`] are [`Symbol`]s.  The twig join, relative XML keys
//! and the context summaries all compare those integers, never label
//! strings, and no Dewey ID is built.
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
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection([("us.xml",
//!     "<country><name>United States</name><year>2006</year></country>")]).unwrap();
//! let year = collection.paths().get_str(collection.symbols(), "/country/year").unwrap();
//! let nodes = collection.nodes_with_path(year);
//! assert_eq!(collection.content(nodes[0]).unwrap(), "2006");
//! ```

pub mod audit;
mod collection;
mod document;
mod error;
mod node;
mod parse;
mod path;
mod symbol;

pub use audit::{AuditResult, InvariantViolation};
pub use collection::{Collection, PathCounts};
pub use document::{Document, DocumentBuilder, MAX_NESTING};
pub use error::{Result, XmlStoreError};
pub use node::{DocId, Node, NodeId, NodeKind};
pub use parse::parse_collection;
pub use path::{LabelPath, PathId, PathTable};
pub use symbol::{Symbol, SymbolTable};

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use crate::{parse_collection, Collection, PathId, Symbol};

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
        /// Contexts derived from the parent chain equal what storing them
        /// did: a node's context extends its parent's by its name, its
        /// length is the node's depth, and `PathId`s follow the old rule of
        /// interning each node's full label list in document order.
        #[test]
        fn derived_contexts_match_the_stored_model(
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
                let mut labels: Vec<Vec<Symbol>> = Vec::with_capacity(doc.len());
                for (_, node) in doc.iter() {
                    let mut steps = node.parent.map_or_else(Vec::new, |p| labels[p as usize].clone());
                    steps.push(node.name);
                    let next = PathId(model.len() as u32);
                    prop_assert_eq!(node.path, *model.entry(steps.clone()).or_insert(next));
                    prop_assert_eq!(collection.paths().resolve(node.path).steps(), &steps[..]);
                    labels.push(steps);
                }
            }
            prop_assert_eq!(collection.paths().len(), model.len());
        }

        /// Splicing a parsed suffix onto a parsed prefix equals parsing the
        /// whole list, at every cut: symbols, path ids and label paths, the
        /// lookup maps, doc ids, uris and every node field (derived
        /// `Collection` equality covers them all) — also when the suffix is
        /// parsed on another thread, as a two-thread build from sources parses
        /// the documents from the byte midpoint of the XML text on.
        #[test]
        fn splicing_a_parsed_suffix_equals_parsing_the_whole_list(
            documents in proptest::collection::vec(
                proptest::collection::vec((0u8..8, any::<u8>()), 0..120),
                0..6,
            ),
        ) {
            let texts: Vec<(String, String)> =
                documents.iter().enumerate().map(|(i, ops)| (format!("d{i}.xml"), xml(ops))).collect();
            let sources: Vec<(&str, &str)> =
                texts.iter().map(|(uri, text)| (uri.as_str(), text.as_str())).collect();
            let whole = parse_collection(sources.iter().copied()).unwrap();
            for cut in 0..=sources.len() {
                let mut spliced = parse_collection(sources[..cut].iter().copied()).unwrap();
                spliced.append(parse_collection(sources[cut..].iter().copied()).unwrap());
                prop_assert_eq!(&spliced, &whole, "cut at {}", cut);
                spliced.verify().unwrap();
            }
            let total: usize = sources.iter().map(|(_, xml)| xml.len()).sum();
            let midpoint = (0..=sources.len())
                .min_by_key(|&cut| {
                    let before: usize = sources[..cut].iter().map(|(_, xml)| xml.len()).sum();
                    (2 * before).abs_diff(total)
                })
                .unwrap_or(0);
            let (head, tail) = sources.split_at(midpoint);
            let tail = std::thread::scope(|scope| {
                scope.spawn(|| parse_collection(tail.iter().copied())).join().unwrap()
            });
            let mut two = parse_collection(head.iter().copied()).unwrap();
            two.append(tail.unwrap());
            prop_assert_eq!(&two, &whole);
        }
    }

    /// Renders one random document as XML text: each `(op, label)` opens an
    /// element (ops 0–3, up to depth 30; an odd label adds an attribute),
    /// closes one (4–5, never the root), adds an empty element (6) or text
    /// with an entity (7).  Six element labels, so a later document often
    /// brings names and contexts an earlier one lacks.
    fn xml(ops: &[(u8, u8)]) -> String {
        let mut out = String::from("<root>");
        let mut open = vec!["root".to_string()];
        for &(op, label) in ops {
            let name = format!("e{}", label % 6);
            match op {
                0..=3 if open.len() < 30 => {
                    out.push_str(&format!("<{name}"));
                    if label % 2 == 1 {
                        out.push_str(&format!(" a{}=\"v{label}\"", label % 3));
                    }
                    out.push('>');
                    open.push(name);
                }
                4 | 5 if open.len() > 1 => {
                    let closed = open.pop().expect("more than the root is open");
                    out.push_str(&format!("</{closed}>"));
                }
                6 => out.push_str(&format!("<{name}/>")),
                7 => out.push_str(&format!("t{label} &amp; ")),
                _ => {}
            }
        }
        for name in open.iter().rev() {
            out.push_str(&format!("</{name}>"));
        }
        out
    }
}
