//! Structural invariant auditing — the `seda-audit` layer for the store.
//!
//! Every substrate crate exposes a `verify()` entry point returning
//! `Result<(), Vec<InvariantViolation>>`; this module defines the shared
//! [`InvariantViolation`] type plus the checks for the store itself.
//!
//! # Invariant catalog (substrate `xmlstore`)
//!
//! | class | invariant |
//! |---|---|
//! | `preorder` | nodes are in preorder: only the first is parentless, each node's parent is an open ancestor of the node before it, and every children list ascends |
//! | `tree-linkage` | parent/child ordinals are in-bounds, parents precede children, and back-pointers agree |
//! | `doc-id-dense` | document ids equal their slot in the collection |
//! | `path-in-bounds` | every node's interned path and name resolve in the shared tables |
//! | `path-parent` | a node's context is one step longer than its parent's and ends in the node's name; a root's context is one step |
//!
//! Preorder ordinals are the store's Dewey order: the twig evaluator's region
//! encoding and the data graph's parent walk both read `preorder`; the
//! evaluator's levels read `path-parent`.  Each class costs O(1) per node.

use std::fmt;

use crate::collection::Collection;
use crate::document::Document;
use crate::node::Node;

/// One detected violation of a structural invariant.
///
/// Violations are diagnostic values, not errors to be matched on in query
/// paths: a frozen read model that fails `verify()` is corrupt and must not
/// serve answers.  The `(substrate, invariant)` pair is a stable,
/// machine-matchable class id (kebab-case) used by the seeded-corruption
/// suite to assert that each injected fault is detected as exactly the class
/// that was perturbed; `detail` is human-oriented context naming the
/// offending document/node/term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The substrate reporting the violation (`"xmlstore"`, `"textindex"`,
    /// `"datagraph"`, `"dataguide"`, `"topk"`, `"core"`).
    pub substrate: &'static str,
    /// Stable kebab-case class id of the violated invariant (e.g.
    /// `"preorder"`, `"postings-sorted"`, `"csr-offsets"`).
    pub invariant: &'static str,
    /// Human-oriented description of the specific violation site.
    pub detail: String,
}

impl InvariantViolation {
    /// Builds a violation record.
    pub fn new(
        substrate: &'static str,
        invariant: &'static str,
        detail: impl Into<String>,
    ) -> Self {
        InvariantViolation { substrate, invariant, detail: detail.into() }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}] {}", self.substrate, self.invariant, self.detail)
    }
}

/// Shorthand for the result every `verify()` returns.
pub type AuditResult = Result<(), Vec<InvariantViolation>>;

/// Folds an accumulated violation list into an [`AuditResult`].
pub fn finish(violations: Vec<InvariantViolation>) -> AuditResult {
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

const SUBSTRATE: &str = "xmlstore";

impl Document {
    /// Verifies the per-document structural invariants: preorder and
    /// parent/child linkage consistency.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        let doc = self.id.0;
        let violation = |class, detail| InvariantViolation::new(SUBSTRATE, class, detail);
        // The open ancestors of the previous node, root first.
        let mut open: Vec<u32> = Vec::new();
        for (ordinal, node) in self.iter() {
            match node.parent {
                None if ordinal != 0 => {
                    violations.push(violation(
                        "preorder",
                        format!("doc {doc} node {ordinal}: parentless node after the root"),
                    ));
                    open.clear();
                }
                None => {}
                Some(parent) if parent >= ordinal => violations.push(violation(
                    "tree-linkage",
                    format!("doc {doc} node {ordinal}: parent {parent} does not precede it"),
                )),
                Some(parent) => {
                    while open.last().is_some_and(|&top| top != parent) {
                        open.pop();
                    }
                    if open.is_empty() {
                        violations.push(violation(
                            "preorder",
                            format!(
                                "doc {doc} node {ordinal}: parent {parent} is not an open ancestor"
                            ),
                        ));
                    }
                    if !self.node_unchecked(parent).children.contains(&ordinal) {
                        violations.push(violation(
                            "tree-linkage",
                            format!(
                                "doc {doc} node {ordinal}: missing from parent {parent}'s children"
                            ),
                        ));
                    }
                }
            }
            open.push(ordinal);
            if node.children.windows(2).any(|pair| pair[0] >= pair[1]) {
                violations.push(violation(
                    "preorder",
                    format!("doc {doc} node {ordinal}: children do not ascend"),
                ));
            }
            for &child in &node.children {
                if child as usize >= self.len() {
                    violations.push(violation(
                        "tree-linkage",
                        format!("doc {doc} node {ordinal}: child ordinal {child} out of bounds"),
                    ));
                } else if self.node_unchecked(child).parent != Some(ordinal) {
                    violations.push(violation(
                        "tree-linkage",
                        format!(
                            "doc {doc} node {ordinal}: child {child} does not point back to it"
                        ),
                    ));
                }
            }
        }
        finish(violations)
    }
}

impl Collection {
    /// Verifies every document plus the collection-level invariants
    /// (dense document ids, interned paths and names in-bounds, each context
    /// one step below its parent's).
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        let paths = self.paths();
        let context_len =
            |n: &Node| (n.path.index() < paths.len()).then(|| paths.resolve(n.path).len());
        for (slot, doc) in self.documents().enumerate() {
            if doc.id.index() != slot {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "doc-id-dense",
                    format!("document in slot {slot} carries id {}", doc.id.0),
                ));
            }
            if let Err(mut doc_violations) = doc.verify() {
                violations.append(&mut doc_violations);
            }
            for (ordinal, node) in doc.iter() {
                if node.path.index() >= self.paths().len() {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "path-in-bounds",
                        format!(
                            "doc {} node {ordinal}: path id {} beyond table of {}",
                            doc.id.0,
                            node.path.0,
                            self.paths().len()
                        ),
                    ));
                }
                // One step below the parent's context, where both resolve.
                let parent_len = match node.parent {
                    None => Some(0),
                    Some(p) => doc.node(p).ok().and_then(context_len),
                };
                if let (Some(parent_len), Some(len)) = (parent_len, context_len(node)) {
                    let leaf = self.paths().resolve(node.path).leaf();
                    if len != parent_len + 1 || leaf != Some(node.name) {
                        violations.push(InvariantViolation::new(
                            SUBSTRATE,
                            "path-parent",
                            format!(
                                "doc {} node {ordinal}: context {} is not one step below its \
                                 parent's",
                                doc.id.0,
                                self.path_string(node.path)
                            ),
                        ));
                    }
                }
                if node.name.index() >= self.symbols().len() {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "path-in-bounds",
                        format!(
                            "doc {} node {ordinal}: name symbol {} beyond table of {}",
                            doc.id.0,
                            node.name.index(),
                            self.symbols().len()
                        ),
                    ));
                }
            }
        }
        finish(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Collection {
        let mut c = Collection::new();
        c.add_document("sample.xml", |b| {
            b.start_element("country")?;
            b.leaf("name", "United States")?;
            b.leaf("year", "2006")?;
            b.start_element("economy")?;
            b.leaf("GDP", "12310")?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    #[test]
    fn fresh_collection_passes() {
        assert_eq!(sample().verify(), Ok(()));
        assert_eq!(Collection::new().verify(), Ok(()));
    }

    fn only_class(c: &Collection, class: &str) {
        let violations = c.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == class), "{violations:?}");
    }

    #[test]
    fn swapped_children_entries_fail_preorder() {
        let mut c = sample();
        // The root's children are name (1), year (2) and economy (3): swapping
        // two entries keeps every link but breaks the ascending order.
        c.corrupt_document(crate::DocId(0), |doc| doc.corrupt_swap_children(0, 0, 1));
        only_class(&c, "preorder");
    }

    #[test]
    fn a_parent_that_is_no_open_ancestor_fails_preorder() {
        // Node 3 is a child of node 1 although node 2, a child of node 0, lies
        // between them: every link agrees, but the arena is not in preorder.
        let node = |parent: Option<u32>, children: Vec<u32>| Node {
            name: crate::Symbol(0),
            kind: crate::NodeKind::Element,
            parent,
            children,
            text: None,
            path: crate::PathId(0),
        };
        let nodes = vec![
            node(None, vec![1, 2]),
            node(Some(0), vec![3]),
            node(Some(0), vec![]),
            node(Some(1), vec![]),
        ];
        let doc = Document::from_parts(crate::DocId(0), "out_of_order.xml".into(), nodes);
        let violations = doc.verify().unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, "preorder");
    }

    #[test]
    fn a_re_pointed_context_fails_path_parent() {
        let mut c = sample();
        // `year` (node 2) gets its parent's context `/country`.
        let country = c.paths().get_str(c.symbols(), "/country").unwrap();
        c.corrupt_document(crate::DocId(0), |doc| doc.corrupt_node_path(2, country));
        only_class(&c, "path-parent");
    }

    #[test]
    fn violation_display_names_the_class() {
        let v = InvariantViolation::new("xmlstore", "preorder", "doc 0 node 3");
        assert_eq!(v.to_string(), "[xmlstore/preorder] doc 0 node 3");
    }
}
