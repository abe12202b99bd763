//! Structural invariant auditing — the `seda-audit` layer for the data
//! graph and its connectivity oracle.
//!
//! # Invariant catalog (substrate `datagraph`)
//!
//! | class | invariant |
//! |---|---|
//! | `csr-offsets` | every CSR offset array is monotone, starts at 0, ends at its arena length, targets in-bounds; the label offsets cover every node, or none without a cross edge |
//! | `cross-symmetry` | every cross edge is stored under both endpoints with the same kind |
//! | `component-partition` | `doc_component` equals the dense union-find closure of the cross edges |
//! | `tree-parent` | every non-root node of a document no cross edge touches lists first in its adjacency a parent-child neighbour at a smaller dense index of the same document, whose adjacency lists the node as its child — the parent a distance walk steps to |
//! | `labels-sorted` | per-node label keys strictly ascending (sorted and deduped); the hub-document bit covers every document and is set exactly where a node of the document has a cross edge |
//! | `labels-bounded` | label distances never exceed [`crate::MAX_DEPTH`] |
//! | `labels-sound` | hub pruning kept the 2-hop cover sound: every adjacency edge of a hub document answers distance 1 |
//! | `scratch-pinned` | no scattered label entry outlives its `PinnedSource`: between queries the pinned array holds "no entry" under every key |
//!
//! The violation type lives in [`seda_xmlstore::audit`]; see there for the
//! catalog conventions.

use std::collections::HashMap;

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};
use seda_xmlstore::{DocId, NodeId};

use crate::connectivity::{MAX_DEPTH, NO_ENTRY};
use crate::graph::{DataGraph, EdgeKind};
use crate::traversal::TraversalScratch;

const SUBSTRATE: &str = "datagraph";

fn check_offsets(
    violations: &mut Vec<InvariantViolation>,
    name: &str,
    offsets: &[u32],
    expected_len: usize,
    arena_len: usize,
) -> bool {
    if offsets.len() != expected_len {
        violations.push(InvariantViolation::new(
            SUBSTRATE,
            "csr-offsets",
            format!("{name}: {} offsets, expected {expected_len}", offsets.len()),
        ));
        return false;
    }
    if offsets.first().is_some_and(|&o| o != 0)
        || offsets.last().map_or(0, |&o| o as usize) != arena_len
    {
        violations.push(InvariantViolation::new(
            SUBSTRATE,
            "csr-offsets",
            format!(
                "{name}: offsets span {:?}..{:?} over an arena of {arena_len}",
                offsets.first(),
                offsets.last()
            ),
        ));
        return false;
    }
    for (i, pair) in offsets.windows(2).enumerate() {
        if pair[0] > pair[1] {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!("{name}: offset {i} decreases: {} > {}", pair[0], pair[1]),
            ));
            return false;
        }
    }
    true
}

impl DataGraph {
    /// Verifies the frozen graph: CSR well-formedness of both adjacency
    /// arenas, cross-edge symmetry, the document component partition, the
    /// parent links the tree documents' distance walk reads, and the hub
    /// labels' invariants.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        if self.doc_offsets.is_empty() {
            // A default-constructed (never built) graph holds no arenas;
            // vacuously well-formed.
            return finish(violations);
        }
        let node_count = self.node_count();
        let docs = self.doc_offsets.len() - 1;

        let doc_ok =
            check_offsets(&mut violations, "doc_offsets", &self.doc_offsets, docs + 1, node_count);
        let adj_ok = check_offsets(
            &mut violations,
            "adj_offsets",
            &self.adj_offsets,
            node_count + 1,
            self.adj_targets.len(),
        );
        let cross_ok = check_offsets(
            &mut violations,
            "cross_offsets",
            &self.cross_offsets,
            node_count + 1,
            self.cross_targets.len(),
        );
        if adj_ok {
            for (i, &(target, _)) in self.adj_targets.iter().enumerate() {
                if target as usize >= node_count {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "csr-offsets",
                        format!("adj target {i} = {target} beyond {node_count} nodes"),
                    ));
                }
            }
        }
        if cross_ok && doc_ok {
            if self.cross_targets.len() != self.edge_count * 2 {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "csr-offsets",
                    format!(
                        "{} cross targets for {} undirected edges",
                        self.cross_targets.len(),
                        self.edge_count
                    ),
                ));
            }
            self.verify_cross_symmetry(&mut violations);
            self.verify_components(&mut violations, docs);
        }
        if doc_ok && adj_ok {
            self.verify_tree_parents(&mut violations, docs);
        }
        if doc_ok {
            self.verify_labels(&mut violations, docs, cross_ok, adj_ok);
        }
        finish(violations)
    }

    fn cross_range(&self, dense: usize) -> &[(NodeId, EdgeKind)] {
        &self.cross_targets
            [self.cross_offsets[dense] as usize..self.cross_offsets[dense + 1] as usize]
    }

    fn verify_cross_symmetry(&self, violations: &mut Vec<InvariantViolation>) {
        for dense in 0..self.node_count() {
            let from = self.node_id(dense as u32);
            for &(to, kind) in self.cross_range(dense) {
                let Some(to_dense) = self.dense(to) else {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "cross-symmetry",
                        format!("cross edge {from:?} -> {to:?} targets a node outside the graph"),
                    ));
                    continue;
                };
                let mirrored = self
                    .cross_range(to_dense as usize)
                    .iter()
                    .any(|&(back, back_kind)| back == from && back_kind == kind);
                if !mirrored {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "cross-symmetry",
                        format!("cross edge {from:?} -> {to:?} ({kind:?}) has no mirror"),
                    ));
                }
            }
        }
    }

    /// Recomputes the union-find partition over the stored cross edges (the
    /// same dense, ascending-doc numbering the build uses) and compares.
    fn verify_components(&self, violations: &mut Vec<InvariantViolation>, docs: usize) {
        if self.doc_component.len() != docs {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "component-partition",
                format!("{} component entries for {docs} documents", self.doc_component.len()),
            ));
            return;
        }
        let mut parent: Vec<u32> = (0..docs as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let grand = parent[parent[x as usize] as usize];
                parent[x as usize] = grand;
                x = grand;
            }
            x
        }
        for dense in 0..self.node_count() {
            let from = self.node_id(dense as u32);
            for &(to, _) in self.cross_range(dense) {
                if self.dense(to).is_none() {
                    continue; // reported by cross-symmetry
                }
                let a = find(&mut parent, from.doc.0);
                let b = find(&mut parent, to.doc.0);
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
        let mut ids: HashMap<u32, u32> = HashMap::new();
        let mut next = 0u32;
        for doc in 0..docs as u32 {
            let root = find(&mut parent, doc);
            let id = *ids.entry(root).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            if self.doc_component[doc as usize] != id {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "component-partition",
                    format!(
                        "doc {doc}: stored component {} but the cross edges give {id}",
                        self.doc_component[doc as usize]
                    ),
                ));
            }
        }
    }

    /// Every non-root node of a tree document lists first the parent the
    /// distance walk steps to, and that parent lists it as a child.
    fn verify_tree_parents(&self, violations: &mut Vec<InvariantViolation>, docs: usize) {
        for doc in 0..docs {
            if self.connectivity.is_hub(DocId(doc as u32)) {
                continue;
            }
            let (root, end) = (self.doc_offsets[doc], self.doc_offsets[doc + 1]);
            for dense in root + 1..end {
                let first = self.neighbors_dense(dense).first().copied();
                let parent_first = matches!(first,
                    Some((parent, EdgeKind::ParentChild)) if (root..dense).contains(&parent)
                        && self.neighbors_dense(parent)
                            .contains(&(dense, EdgeKind::ParentChild)));
                if !parent_first {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "tree-parent",
                        format!(
                            "node {dense} of tree document {doc} lists {first:?} first, \
                             not a parent in its document before it that lists it as a child"
                        ),
                    ));
                }
            }
        }
    }

    fn verify_labels(
        &self,
        violations: &mut Vec<InvariantViolation>,
        docs: usize,
        cross_ok: bool,
        adj_ok: bool,
    ) {
        let conn = &self.connectivity;
        if conn.hub_docs.len() != docs {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "labels-sorted",
                format!("{} hub-document bits for {docs} documents", conn.hub_docs.len()),
            ));
            return;
        }
        if cross_ok {
            // The bit picks the answer path, so it must say exactly whether a
            // cross edge touches the document.
            for doc in 0..docs {
                let nodes = self.doc_offsets[doc] as usize..self.doc_offsets[doc + 1] as usize;
                let touched = nodes.into_iter().any(|dense| !self.cross_range(dense).is_empty());
                if conn.hub_docs[doc] != touched {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "labels-sorted",
                        format!(
                            "document {doc}: hub bit {}, touched by a cross edge: {touched}",
                            conn.hub_docs[doc]
                        ),
                    ));
                }
            }
        }
        // Every node has a label range, or none does without a hub document.
        let expected = if conn.hub_docs.contains(&true) { self.node_count() + 1 } else { 0 };
        if !check_offsets(violations, "label offsets", &conn.offsets, expected, conn.hubs.len())
            || conn.dists.len() != conn.hubs.len()
        {
            if conn.dists.len() != conn.hubs.len() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "labels-sorted",
                    format!("{} distances for {} hubs", conn.dists.len(), conn.hubs.len()),
                ));
            }
            return;
        }
        for dense in 0..conn.slots() {
            let lo = conn.offsets[dense] as usize;
            let hi = conn.offsets[dense + 1] as usize;
            for (i, pair) in conn.hubs[lo..hi].windows(2).enumerate() {
                if pair[0] >= pair[1] {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "labels-sorted",
                        format!(
                            "node {dense} label keys not strictly ascending at {i}: {} then {}",
                            pair[0], pair[1]
                        ),
                    ));
                }
            }
            for &d in &conn.dists[lo..hi] {
                if d as usize > MAX_DEPTH {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "labels-bounded",
                        format!("node {dense} carries distance {d} beyond {MAX_DEPTH}"),
                    ));
                }
            }
        }
        if !(cross_ok && adj_ok) {
            return; // soundness needs a well-formed adjacency to walk
        }
        // Hub-pruning soundness, checked empirically: for every adjacency
        // edge of a hub document between distinct nodes the 2-hop cover must
        // answer exactly 1.
        let mut probes = 0u64;
        for doc in (0..docs).filter(|&doc| conn.hub_docs[doc]) {
            for dense in self.doc_offsets[doc]..self.doc_offsets[doc + 1] {
                for &(target, _) in self.neighbors_dense(dense) {
                    if target == dense {
                        continue;
                    }
                    let d = conn.label_distance(dense, target, &mut probes);
                    if d != 1 {
                        violations.push(InvariantViolation::new(
                            SUBSTRATE,
                            "labels-sound",
                            format!(
                                "adjacent nodes {dense} and {target} answer distance {d}, not 1"
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Test-only corruption hook: overwrites one full-adjacency offset
    /// (breaks `csr-offsets`).
    #[doc(hidden)]
    pub fn corrupt_adj_offset(&mut self, index: usize, value: u32) {
        self.adj_offsets[index] = value;
    }

    /// Test-only corruption hook: points one node's first adjacency entry at
    /// `target` (breaks `tree-parent` for a non-root node of a tree document
    /// when `target` is not its parent).
    #[doc(hidden)]
    pub fn corrupt_first_neighbor(&mut self, dense: u32, target: u32) {
        let slot = self.adj_offsets[dense as usize] as usize;
        self.adj_targets[slot].0 = target;
    }

    /// Test-only corruption hook: redirects one cross-edge target (breaks
    /// `cross-symmetry`).
    #[doc(hidden)]
    pub fn corrupt_cross_target(&mut self, index: usize, target: NodeId) {
        self.cross_targets[index].0 = target;
    }

    /// Test-only corruption hook: overwrites one document's component id
    /// (breaks `component-partition`).
    #[doc(hidden)]
    pub fn corrupt_doc_component(&mut self, doc: usize, id: u32) {
        self.doc_component[doc] = id;
    }

    /// Test-only corruption hook: clears one document's hub bit, sending its
    /// pairs to the parent walk (breaks `labels-sorted` when a cross edge
    /// touches the document).
    #[doc(hidden)]
    pub fn corrupt_clear_hub_doc(&mut self, doc: usize) {
        self.connectivity.hub_docs[doc] = false;
    }

    /// Test-only corruption hook: swaps two label keys of one node (breaks
    /// `labels-sorted` when the node has two or more labels).
    #[doc(hidden)]
    pub fn corrupt_swap_labels(&mut self, dense: u32) -> bool {
        let (lo, hi) = self.label_range(dense);
        if hi - lo < 2 {
            return false;
        }
        self.connectivity.hubs.swap(lo, lo + 1);
        self.connectivity.dists.swap(lo, lo + 1);
        true
    }

    /// Test-only corruption hook: drops every label of one node, keeping the
    /// arenas structurally well-formed (breaks `labels-sound` for any node
    /// of a hub document with a neighbour).
    #[doc(hidden)]
    pub fn corrupt_clear_labels(&mut self, dense: u32) {
        let (lo, hi) = self.label_range(dense);
        self.connectivity.hubs.drain(lo..hi);
        self.connectivity.dists.drain(lo..hi);
        let dropped = (hi - lo) as u32;
        for offset in &mut self.connectivity.offsets {
            if *offset as usize > lo {
                *offset -= dropped;
            }
        }
    }

    /// Test-only corruption hook: inflates one label distance (breaks
    /// `labels-bounded` when set beyond [`crate::MAX_DEPTH`]).
    #[doc(hidden)]
    pub fn corrupt_label_dist(&mut self, entry: usize, dist: u16) {
        self.connectivity.dists[entry] = dist;
    }

    /// The label entry range of one dense node, empty when the graph has no
    /// labels (sizing input for the corruption suite).
    #[doc(hidden)]
    pub fn label_range(&self, dense: u32) -> (usize, usize) {
        let conn = &self.connectivity;
        let dense = dense as usize;
        if dense < conn.slots() {
            (conn.offsets[dense] as usize, conn.offsets[dense + 1] as usize)
        } else {
            (0, 0)
        }
    }
}

impl TraversalScratch {
    /// Verifies the reusable traversal state between queries: the array a
    /// [`crate::PinnedSource`] scatters its label into is clean again (a
    /// leftover entry would read as a hub of every later source and shorten
    /// its distances — the `scratch-pinned` class).
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        if let Some(key) = self.pinned.iter().position(|&d| d != NO_ENTRY) {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "scratch-pinned",
                format!(
                    "label key {key} still holds a pinned distance of {} with no source pinned",
                    self.pinned[key]
                ),
            ));
        }
        finish(violations)
    }

    /// Test-only corruption hook: leaves one pinned entry behind, as a
    /// [`crate::PinnedSource`] that never un-scattered would (breaks
    /// `scratch-pinned`).  Returns `false` when the scratch has never pinned
    /// a hub source and holds no slots.
    #[doc(hidden)]
    pub fn corrupt_leave_pinned(&mut self) -> bool {
        match self.pinned.first_mut() {
            Some(slot) => {
                *slot = 0;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphConfig;
    use seda_xmlstore::parse_collection;

    fn linked_graph() -> DataGraph {
        let c = parse_collection(vec![
            (
                "sea.xml",
                r#"<sea id="sea-1"><name>Pacific</name>
                     <bordering country_idref="cty-us"/>
                   </sea>"#,
            ),
            ("us.xml", r#"<country id="cty-us"><name>United States</name></country>"#),
            ("island.xml", r#"<island><name>Lonely</name><area><km2>4</km2></area></island>"#),
        ])
        .unwrap();
        DataGraph::build(&c, &GraphConfig::default())
    }

    #[test]
    fn fresh_graph_passes() {
        assert_eq!(linked_graph().verify(), Ok(()));
        assert_eq!(DataGraph::default().verify(), Ok(()));
    }

    #[test]
    fn broken_adjacency_offset_fails_csr_offsets() {
        let mut g = linked_graph();
        g.corrupt_adj_offset(1, u32::MAX);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "csr-offsets"), "{violations:?}");
    }

    #[test]
    fn redirected_cross_target_fails_symmetry() {
        let mut g = linked_graph();
        assert!(g.cross_edge_count() > 0);
        // Point one direction of the edge at the unrelated island document.
        g.corrupt_cross_target(0, NodeId::new(DocId(2), 0));
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "cross-symmetry"), "{violations:?}");
    }

    #[test]
    fn rewritten_component_fails_partition() {
        let mut g = linked_graph();
        g.corrupt_doc_component(0, 99);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "component-partition"), "{violations:?}");
    }

    #[test]
    fn a_first_neighbour_that_is_not_the_parent_fails_tree_parent() {
        let mut g = linked_graph();
        // island.xml (document 2) is a tree: no cross edge touches it.  Its
        // `name` points at itself instead of at the `island` before it.
        let name = g.dense(NodeId::new(DocId(2), 1)).unwrap();
        g.corrupt_first_neighbor(name, name);
        let violations = g.verify().unwrap_err();
        assert!(!violations.is_empty());
        assert!(violations.iter().all(|v| v.invariant == "tree-parent"), "{violations:?}");
    }

    #[test]
    fn a_first_neighbour_at_an_earlier_non_parent_fails_tree_parent() {
        let mut g = linked_graph();
        // The last node of island.xml sits two or more levels below its root,
        // which precedes it in the document but is not its parent.
        let root = g.doc_offsets[2];
        let deepest = g.doc_offsets[3] - 1;
        assert!(g.parent_dense(deepest) != root);
        g.corrupt_first_neighbor(deepest, root);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "tree-parent"), "{violations:?}");
    }

    #[test]
    fn a_cleared_hub_bit_fails_labels_sorted() {
        let mut g = linked_graph();
        // sea.xml (document 0) holds the IDREF; without its bit its pairs
        // would be answered by a parent walk that climbs past its root.
        g.corrupt_clear_hub_doc(0);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "labels-sorted"), "{violations:?}");
    }

    #[test]
    fn swapped_label_keys_fail_labels_sorted() {
        let mut g = linked_graph();
        let node_count = g.node_count() as u32;
        let swapped = (0..node_count).any(|dense| g.corrupt_swap_labels(dense));
        assert!(swapped, "some node must carry two or more labels");
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "labels-sorted"), "{violations:?}");
    }

    #[test]
    fn dropped_labels_fail_labels_sound() {
        let mut g = linked_graph();
        g.corrupt_clear_labels(0);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "labels-sound"), "{violations:?}");
    }

    #[test]
    fn tree_documents_carry_no_label_entries() {
        let mut g = linked_graph();
        let island = g.dense(NodeId::new(DocId(2), 0)).unwrap();
        let (lo, hi) = g.label_range(island);
        assert_eq!(lo, hi);
        assert!(!g.corrupt_swap_labels(island));
    }

    #[test]
    fn a_leftover_pinned_entry_fails_scratch_pinned() {
        let g = linked_graph();
        let mut scratch = TraversalScratch::new();
        assert!(!scratch.corrupt_leave_pinned(), "a scratch that never pinned has no slots");
        // Pin and release a hub source so the array exists and is clean.
        let source = crate::pin(&g, &mut scratch, g.node_id(0)).expect("node 0 pins");
        drop(source);
        scratch.verify().unwrap();
        assert!(scratch.corrupt_leave_pinned());
        let violations = scratch.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "scratch-pinned"), "{violations:?}");
    }

    #[test]
    fn inflated_distance_fails_labels_bounded() {
        let mut g = linked_graph();
        // Dense node 0 is the sea element — a hub document.
        let (lo, hi) = g.label_range(0);
        assert!(hi > lo);
        g.corrupt_label_dist(lo, u16::MAX);
        let violations = g.verify().unwrap_err();
        // The saturated distance also breaks edge soundness around node 0.
        assert!(violations.iter().any(|v| v.invariant == "labels-bounded"), "{violations:?}");
    }
}
