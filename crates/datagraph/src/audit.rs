//! Structural invariant auditing — the `seda-audit` layer for the data
//! graph and its connectivity oracle.
//!
//! # Invariant catalog (substrate `datagraph`)
//!
//! | class | invariant |
//! |---|---|
//! | `csr-offsets` | the document, adjacency and label offset arrays are monotone, start at 0 and end at their arena lengths; adjacency targets are in bounds, and the adjacency holds two cross entries (non-parent-child neighbours) per cross edge; the peel arrays (`depth`, `attach`) cover every node and the label offsets every core node by rank, or neither exists without a cross edge |
//! | `cross-symmetry` | every cross entry of the adjacency is mirrored under its other endpoint with the same kind |
//! | `component-partition` | `doc_component` equals the dense union-find closure of the adjacency's cross entries |
//! | `tree-parent` | every non-root node of a document no cross edge touches lists first in its adjacency a parent-child neighbour at a smaller dense index of the same document, whose adjacency lists the node as its child — the parent a distance walk steps to |
//! | `labels-sorted` | per-node label keys strictly ascending (sorted and deduped); the hub-document bit covers every document and is set exactly where a node of the document has a cross edge |
//! | `labels-bounded` | label distances never exceed [`crate::MAX_DEPTH`] |
//! | `fringe-peel` | the peel of the hub documents holds: every neighbour of a peeled node shares its attachment and lies one step deeper — it hangs from the node — except its `up`, one step shallower, which a node other than a root lists exactly once; a core node holds a distinct rank within the label arena and keeps ≥ 2 adjacency entries naming core nodes |
//! | `labels-sound` | hub pruning kept the 2-hop cover sound: every adjacency edge between two core nodes answers distance 1 |
//! | `scratch-pinned` | no scattered label entry outlives its `PinnedSource`: between queries the pinned array holds "no entry" under every key |
//!
//! The violation type lives in [`seda_xmlstore::audit`]; see there for the
//! catalog conventions.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};
use seda_xmlstore::{DocId, NodeId};

use crate::connectivity::{MAX_DEPTH, NO_CORE, NO_ENTRY};
use crate::graph::{doc_components, DataGraph, EdgeKind};
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
    /// Verifies the frozen graph: CSR well-formedness, cross-edge symmetry,
    /// the document component partition, the parent links the tree
    /// documents' distance walk reads, the peel of the hub documents and the
    /// core labels' invariants.
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
        let mut adj_ok = check_offsets(
            &mut violations,
            "adj_offsets",
            &self.adj_offsets,
            node_count + 1,
            self.adj_targets.len(),
        );
        if adj_ok {
            for (i, &(target, _)) in self.adj_targets.iter().enumerate() {
                if target as usize >= node_count {
                    adj_ok = false;
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "csr-offsets",
                        format!("adj target {i} = {target} beyond {node_count} nodes"),
                    ));
                }
            }
        }
        let mut touched = None;
        if doc_ok && adj_ok {
            touched = Some(self.verify_cross_edges(&mut violations, docs));
            self.verify_tree_parents(&mut violations, docs);
        }
        if doc_ok {
            self.verify_labels(&mut violations, docs, touched.as_deref());
        }
        finish(violations)
    }

    /// One walk over every document's dense range reads each cross entry of
    /// the adjacency once: for its mirror (`cross-symmetry`), for the entry
    /// count (`csr-offsets`) and for the union-find the stored components
    /// are compared with (`component-partition`).  Returns, per document,
    /// whether a cross entry touches it — what its hub bit must say.
    fn verify_cross_edges(
        &self,
        violations: &mut Vec<InvariantViolation>,
        docs: usize,
    ) -> Vec<bool> {
        let mut touched = vec![false; docs];
        let mut doc_pairs = Vec::new();
        for (doc, range) in self.doc_offsets.windows(2).enumerate() {
            for from in range[0]..range[1] {
                for (to, kind) in self.cross_neighbors_dense(from) {
                    touched[doc] = true;
                    doc_pairs.push((doc as u32, self.node_id(to).doc.0));
                    if !self.cross_neighbors_dense(to).any(|back| back == (from, kind)) {
                        violations.push(InvariantViolation::new(
                            SUBSTRATE,
                            "cross-symmetry",
                            format!("cross edge {from} -> {to} ({kind:?}) has no mirror"),
                        ));
                    }
                }
            }
        }
        if doc_pairs.len() != self.edge_count * 2 {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!(
                    "{} cross entries for {} undirected edges",
                    doc_pairs.len(),
                    self.edge_count
                ),
            ));
        }
        if self.doc_component.len() != docs {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "component-partition",
                format!("{} component entries for {docs} documents", self.doc_component.len()),
            ));
            return touched;
        }
        let derived = doc_components(docs, doc_pairs);
        for (doc, (&stored, &id)) in self.doc_component.iter().zip(&derived).enumerate() {
            if stored != id {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "component-partition",
                    format!("doc {doc}: stored component {stored} but the cross edges give {id}"),
                ));
            }
        }
        touched
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

    /// `touched` is `None` when the adjacency is malformed: the hub bits
    /// then have nothing to be judged against, and no peel or edge to be
    /// sound for.
    fn verify_labels(
        &self,
        violations: &mut Vec<InvariantViolation>,
        docs: usize,
        touched: Option<&[bool]>,
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
        if let Some(touched) = touched {
            // The bit picks the answer path, so it must say exactly whether a
            // cross edge touches the document.
            for (doc, &touched) in touched.iter().enumerate() {
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
        // Every node has a peel entry, or none does without a hub document.
        let nodes = if conn.hub_docs.contains(&true) { self.node_count() } else { 0 };
        let lengths = [("depth", conn.depth.len()), ("attach", conn.attach.len())];
        if let Some((name, len)) = lengths.into_iter().find(|&(_, len)| len != nodes) {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!("peel array {name}: {len} entries for {nodes} nodes"),
            ));
            return;
        }
        // Every core node has a label range, ranked; none does without one.
        let hub_nodes = || {
            (0..docs)
                .filter(|&doc| conn.hub_docs[doc])
                .flat_map(|doc| self.doc_offsets[doc]..self.doc_offsets[doc + 1])
        };
        let cores = (0..nodes as u32).filter(|&v| self.is_core(v)).count();
        let expected = if nodes == 0 { 0 } else { cores + 1 };
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
        for rank in 0..conn.slots() {
            let lo = conn.offsets[rank] as usize;
            let hi = conn.offsets[rank + 1] as usize;
            for (i, pair) in conn.hubs[lo..hi].windows(2).enumerate() {
                if pair[0] >= pair[1] {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "labels-sorted",
                        format!(
                            "core rank {rank} label keys not strictly ascending at {i}: {} then {}",
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
                        format!("core rank {rank} carries distance {d} beyond {MAX_DEPTH}"),
                    ));
                }
            }
        }
        if touched.is_none() {
            return; // the peel and soundness need a well-formed adjacency to walk
        }
        if !self.verify_peel(violations, hub_nodes()) {
            return; // soundness reads ranks the peel vouches for
        }
        // Hub-pruning soundness, checked empirically: for every adjacency
        // edge between two core nodes the 2-hop cover must answer exactly 1.
        let mut probes = 0u64;
        for v in hub_nodes().filter(|&v| self.is_core(v)) {
            for &(w, _) in self.neighbors_dense(v) {
                if !self.is_core(w) {
                    continue;
                }
                let d = conn.label_distance(
                    conn.attach[v as usize],
                    conn.attach[w as usize],
                    &mut probes,
                );
                if d != 1 {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "labels-sound",
                        format!("adjacent core nodes {v} and {w} answer distance {d}, not 1"),
                    ));
                }
            }
        }
    }

    /// True when a dense node of a hub document survived the peel: it lies
    /// at depth 0 with an attachment of its own.
    fn is_core(&self, dense: u32) -> bool {
        let conn = &self.connectivity;
        conn.depth[dense as usize] == 0 && conn.attach[dense as usize] != NO_CORE
    }

    /// The `fringe-peel` class over the nodes of the hub documents; returns
    /// whether it held.
    fn verify_peel(
        &self,
        violations: &mut Vec<InvariantViolation>,
        hub_nodes: impl Iterator<Item = u32>,
    ) -> bool {
        let conn = &self.connectivity;
        let before = violations.len();
        let mut fail = |detail: String| {
            violations.push(InvariantViolation::new(SUBSTRATE, "fringe-peel", detail));
        };
        let mut ranked = vec![false; conn.slots()];
        for v in hub_nodes {
            let (depth, attach) = (conn.depth[v as usize], conn.attach[v as usize]);
            let entries = self.neighbors_dense(v);
            if self.is_core(v) {
                let core_entries = entries.iter().filter(|&&(w, _)| self.is_core(w)).count();
                let fresh =
                    ranked.get_mut(attach as usize).map(|seen| !std::mem::replace(seen, true));
                if fresh != Some(true) || core_entries < 2 {
                    fail(format!(
                        "core node {v}: rank {attach} (fresh in the arena: {fresh:?}), \
                         {core_entries} core entries"
                    ));
                }
                continue;
            }
            // A peeled node: its one `up` lies a step shallower (none at a
            // root), everything else hangs from it a step deeper, and all
            // share its attachment.
            let mut ups = 0;
            for &(w, _) in entries {
                let (w_depth, w_attach) = (conn.depth[w as usize], conn.attach[w as usize]);
                let up = w_depth.checked_add(1) == Some(depth);
                ups += up as usize;
                if w_attach != attach || !(up || depth.checked_add(1) == Some(w_depth)) {
                    fail(format!(
                        "peeled node {v} at depth {depth} (attachment {attach}) neighbours {w} \
                         at depth {w_depth} (attachment {w_attach})"
                    ));
                }
            }
            if ups != (depth > 0) as usize {
                fail(format!("peeled node {v} at depth {depth} lists {ups} shallower neighbours"));
            }
        }
        violations.len() == before
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

    /// Test-only corruption hook: redirects the `index`-th cross entry of
    /// the adjacency, in adjacency order, to `target` (breaks
    /// `cross-symmetry`).  Returns `false` when the adjacency holds no such
    /// entry.
    #[doc(hidden)]
    pub fn corrupt_cross_target(&mut self, index: usize, target: NodeId) -> bool {
        let target = self.dense(target).unwrap_or(u32::MAX);
        let mut cross =
            self.adj_targets.iter_mut().filter(|(_, kind)| *kind != EdgeKind::ParentChild);
        match cross.nth(index) {
            Some(entry) => {
                entry.0 = target;
                true
            }
            None => false,
        }
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

    /// Test-only corruption hook: drops every label entry of one node's
    /// attachment, keeping the arenas structurally well-formed (breaks
    /// `labels-sound` for a node attached to a core node).
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
    pub fn corrupt_label_dist(&mut self, entry: usize, dist: u8) {
        self.connectivity.dists[entry] = dist;
    }

    /// Test-only corruption hook: overwrites one node's depth below its
    /// attachment (breaks `fringe-peel` when the node was peeled and `depth`
    /// differs from its own).
    #[doc(hidden)]
    pub fn corrupt_peel_depth(&mut self, dense: u32, depth: u32) {
        self.connectivity.depth[dense as usize] = depth;
    }

    /// The label entry range of one dense node's attachment — the core label
    /// its distances read — empty for a node of a tree document or of a
    /// component without a core (sizing input for the corruption suite).
    #[doc(hidden)]
    pub fn label_range(&self, dense: u32) -> (usize, usize) {
        let conn = &self.connectivity;
        let rank = conn.attach.get(dense as usize).map_or(usize::MAX, |&rank| rank as usize);
        if rank < conn.slots() {
            (conn.offsets[rank] as usize, conn.offsets[rank + 1] as usize)
        } else {
            (0, 0)
        }
    }

    /// The depth of one dense node below its attachment, 0 at a core node,
    /// a root or a node of a tree document (input for the corruption suite).
    #[doc(hidden)]
    pub fn peel_depth(&self, dense: u32) -> u32 {
        self.connectivity.depth.get(dense as usize).copied().unwrap_or(0)
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
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name>
                     <coast sea_idref="sea-1"/></country>"#,
            ),
            ("island.xml", r#"<island><name>Lonely</name><area><km2>4</km2></area></island>"#),
        ])
        .unwrap();
        // The two references close a ring through both roots: a 2-core of
        // four nodes, every other node of the two documents peeled.
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
        assert!(g.corrupt_cross_target(0, NodeId::new(DocId(2), 0)));
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
    fn the_ring_is_the_core_and_every_other_hub_node_hangs_from_it() {
        let g = linked_graph();
        // sea, bordering, country and coast stay; names, ids and the
        // referencing attributes hang one step below them.
        let core: Vec<u32> = (0..g.node_count() as u32).filter(|&v| g.is_core(v)).collect();
        assert_eq!(core.len(), 4, "{core:?}");
        assert_eq!(g.connectivity().slots(), 4);
        let sea_name = g.dense(NodeId::new(DocId(0), 2)).unwrap();
        assert_eq!(g.peel_depth(sea_name), 1);
        assert_eq!(g.up_dense(sea_name), 0, "the name hangs from the sea");
    }

    #[test]
    fn a_moved_peel_depth_fails_fringe_peel() {
        let mut g = linked_graph();
        let sea_name = g.dense(NodeId::new(DocId(0), 2)).unwrap();
        g.corrupt_peel_depth(sea_name, 2);
        let violations = g.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "fringe-peel"), "{violations:?}");
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
        g.corrupt_label_dist(lo, u8::MAX);
        let violations = g.verify().unwrap_err();
        // The saturated distance also breaks edge soundness around node 0.
        assert!(violations.iter().any(|v| v.invariant == "labels-bounded"), "{violations:?}");
    }
}
