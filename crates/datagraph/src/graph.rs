//! The SEDA data graph (Definition 2).
//!
//! Dense node indices follow each document's preorder, and every adjacency
//! lists the parent first — all a parent walk needs in a document no cross
//! edge touches (`tree-parent` in the audit).

use std::cell::Cell;
use std::collections::HashMap;

use seda_xmlstore::{Collection, DocId, NodeId, NodeKind, PathId};

use crate::config::{is_id_attribute, is_idref_attribute, is_xlink_attribute, GraphConfig};
use crate::connectivity::ConnectivityIndex;

/// Kind of an edge in the data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Parent/child relationship within a document (includes attributes).
    ParentChild,
    /// IDREF attribute referencing an ID attribute.
    IdRef,
    /// XLink/XPointer reference.
    XLink,
    /// Value-based (primary-key / foreign-key) relationship.
    ValueBased,
}

/// A directed cross-document or intra-document non-tree edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Relationship kind.
    pub kind: EdgeKind,
}

thread_local! {
    static COMPONENT_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// Number of document-component computations performed **on the calling
/// thread** since it started.
///
/// Document components are a build-time artifact of [`DataGraph::build`];
/// searchers must never recompute them per query.  Regression tests read this
/// counter before and after a batch of searches to pin that invariant (the
/// counter is thread-local so concurrently running tests cannot disturb each
/// other).
pub fn doc_component_builds_on_this_thread() -> usize {
    COMPONENT_BUILDS.with(Cell::get)
}

/// The data graph in CSR (compressed sparse row) layout.
///
/// Nodes are addressed by **dense indices**: node `(doc, ordinal)` maps to
/// `doc_offsets[doc] + ordinal`, so every per-node lookup on the traversal hot
/// path is an array access instead of a `HashMap` probe.  One adjacency is
/// materialised at build time: each node lists its parent, its children in
/// document order, then its cross edges (IDREF, XLink and value-based) in
/// insertion order.  Every cross edge sits under both endpoints, so the
/// adjacency's non-[`EdgeKind::ParentChild`] entries are also what
/// [`DataGraph::edges`] lists.
///
/// The per-document connected components over cross edges (the pruning
/// structure the top-k searchers use) are computed once here as well.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DataGraph {
    /// Prefix sums of document node counts: dense index of `(doc, ord)` is
    /// `doc_offsets[doc.index()] + ord`; length is `#docs + 1`.
    pub(crate) doc_offsets: Vec<u32>,
    /// Full adjacency offsets, length `node_count + 1`.
    pub(crate) adj_offsets: Vec<u32>,
    /// Full adjacency targets as dense indices (parent first, then children
    /// in document order, then cross edges in insertion order).
    pub(crate) adj_targets: Vec<(u32, EdgeKind)>,
    /// Connected-component id of every document (components over cross
    /// edges), indexed by document.
    pub(crate) doc_component: Vec<u32>,
    /// The connectivity oracle: which documents cross edges touch, their
    /// peel and the labels of their 2-core, built with the graph.
    pub(crate) connectivity: ConnectivityIndex,
    pub(crate) edge_count: usize,
}

impl DataGraph {
    /// Builds the data graph over a collection.
    ///
    /// * IDREF/XLink edges connect the *element owning* the referencing
    ///   attribute to the *element owning* the referenced ID attribute; when
    ///   two elements define one ID value, the later one in document order
    ///   wins.
    /// * Value-based edges connect the nodes named by the configured
    ///   [`crate::ValueKeySpec`]s whenever their contents are equal.
    ///
    /// One scan in document order collects ID definitions, references and
    /// value-key endpoints; resolution runs after it, because a reference
    /// may name an ID defined by a later document.  The CSR adjacency, the
    /// per-document components and the connectivity oracle are then
    /// materialised over the collection's node arenas.
    pub fn build(collection: &Collection, config: &GraphConfig) -> Self {
        let path_of = |text: &str| collection.paths().get_str(collection.symbols(), text);
        let key_paths: Vec<(Option<PathId>, Option<PathId>)> = config
            .value_keys
            .iter()
            .map(|spec| (path_of(&spec.primary_path), path_of(&spec.foreign_path)))
            .collect();

        let mut id_map: HashMap<&str, NodeId> = HashMap::new();
        let mut references: Vec<(NodeId, &str, EdgeKind)> = Vec::new();
        // Per value-key spec: primary-side nodes by content, and the
        // foreign-side `(content, node)` pairs.
        let mut primary: Vec<HashMap<String, Vec<NodeId>>> = vec![HashMap::new(); key_paths.len()];
        let mut foreign: Vec<Vec<(String, NodeId)>> = vec![Vec::new(); key_paths.len()];
        for doc in collection.documents() {
            for (ordinal, node) in doc.iter() {
                let here = NodeId::new(doc.id, ordinal);
                for (spec, &(primary_path, foreign_path)) in key_paths.iter().enumerate() {
                    if primary_path == Some(node.path) {
                        primary[spec].entry(doc.content(ordinal)).or_default().push(here);
                    }
                    if foreign_path == Some(node.path) {
                        foreign[spec].push((doc.content(ordinal), here));
                    }
                }
                if node.kind != NodeKind::Attribute {
                    continue;
                }
                let (Some(parent), Some(value)) = (node.parent, node.text.as_deref()) else {
                    continue;
                };
                let owner = NodeId::new(doc.id, parent);
                let name = collection.symbols().resolve(node.name);
                if is_id_attribute(name) {
                    id_map.insert(value.trim(), owner);
                }
                let kind = if is_idref_attribute(name) {
                    EdgeKind::IdRef
                } else if is_xlink_attribute(name) {
                    EdgeKind::XLink
                } else {
                    continue;
                };
                // XLink values may carry a fragment (`doc.xml#id`); use the
                // fragment if present.
                references.push((owner, value.rsplit('#').next().unwrap_or(value).trim(), kind));
            }
        }

        // Reference edges in document order, then each spec's value edges.
        // No edge joins a node to itself: a self-loop changes no distance,
        // and no node is its own neighbour.
        let mut edges: Vec<Edge> = Vec::new();
        for (from, key, kind) in references {
            if let Some(&to) = id_map.get(key).filter(|&&to| to != from) {
                edges.push(Edge { from, to, kind });
            }
        }
        for (primary, foreign) in primary.iter().zip(foreign) {
            for (content, from) in foreign {
                for &to in primary.get(&content).into_iter().flatten() {
                    if to != from {
                        edges.push(Edge { from, to, kind: EdgeKind::ValueBased });
                    }
                }
            }
        }

        // Dense node numbering: prefix sums of document lengths.
        let mut doc_offsets = Vec::with_capacity(collection.len() + 1);
        doc_offsets.push(0);
        let mut total = 0u32;
        for doc in collection.documents() {
            total += doc.len() as u32;
            doc_offsets.push(total);
        }
        let mut graph = DataGraph { doc_offsets, edge_count: edges.len(), ..DataGraph::default() };
        graph.freeze_adjacency(collection, &edges);
        COMPONENT_BUILDS.with(|c| c.set(c.get() + 1));
        graph.doc_component =
            doc_components(collection.len(), edges.iter().map(|e| (e.from.doc.0, e.to.doc.0)));
        graph.connectivity = ConnectivityIndex::assemble(&graph, &edges);
        graph
    }

    /// Builds the CSR adjacency: parent, children in document order, then
    /// the resolved cross edges in insertion order, each under both of its
    /// endpoints.
    fn freeze_adjacency(&mut self, collection: &Collection, edges: &[Edge]) {
        // Each node's degree, then (once the offsets are laid out) the next
        // free slot of its cross edges.
        let mut cursor = vec![0u32; self.node_count()];
        for edge in edges {
            cursor[self.dense_unchecked(edge.from) as usize] += 1;
            cursor[self.dense_unchecked(edge.to) as usize] += 1;
        }
        for doc in collection.documents() {
            let base = self.doc_offsets[doc.id.index()];
            for (ordinal, node) in doc.iter() {
                cursor[(base + ordinal) as usize] +=
                    node.parent.is_some() as u32 + node.children.len() as u32;
            }
        }
        self.adj_offsets = prefix_sums(&cursor);
        let total = *self.adj_offsets.last().unwrap_or(&0) as usize;
        self.adj_targets = vec![(0u32, EdgeKind::ParentChild); total];
        for doc in collection.documents() {
            let base = self.doc_offsets[doc.id.index()];
            for (ordinal, node) in doc.iter() {
                let dense = (base + ordinal) as usize;
                let mut slot = self.adj_offsets[dense] as usize;
                for neighbour in node.parent.into_iter().chain(node.children.iter().copied()) {
                    self.adj_targets[slot] = (base + neighbour, EdgeKind::ParentChild);
                    slot += 1;
                }
                cursor[dense] = slot as u32;
            }
        }
        for edge in edges {
            for (a, b) in [(edge.from, edge.to), (edge.to, edge.from)] {
                let target = self.dense_unchecked(b);
                let slot = &mut cursor[self.dense_unchecked(a) as usize];
                self.adj_targets[*slot as usize] = (target, edge.kind);
                *slot += 1;
            }
        }
    }

    /// Total number of nodes addressable in the graph (the collection's node
    /// count at build time).
    pub fn node_count(&self) -> usize {
        *self.doc_offsets.last().unwrap_or(&0) as usize
    }

    /// Dense index of a node, or `None` when the node lies outside the
    /// collection the graph was built over.
    pub fn dense(&self, node: NodeId) -> Option<u32> {
        let doc = node.doc.index();
        if doc + 1 >= self.doc_offsets.len() {
            return None;
        }
        let base = self.doc_offsets[doc];
        let dense = base.checked_add(node.node)?;
        (dense < self.doc_offsets[doc + 1]).then_some(dense)
    }

    fn dense_unchecked(&self, node: NodeId) -> u32 {
        self.doc_offsets[node.doc.index()] + node.node
    }

    /// Number of documents the graph was built over.
    pub(crate) fn doc_count(&self) -> usize {
        self.doc_offsets.len().saturating_sub(1)
    }

    /// The parent of a non-root node of a document no cross edge touches:
    /// the first entry of its adjacency (`tree-parent`).
    pub(crate) fn parent_dense(&self, dense: u32) -> u32 {
        self.adj_targets[self.adj_offsets[dense as usize] as usize].0
    }

    /// The neighbour one step closer to the attachment of a peeled node of a
    /// hub document: its one neighbour one step shallower (`fringe-peel`),
    /// found first in the adjacency whenever it is the node's XML parent.
    /// The node itself at depth 0.
    pub(crate) fn up_dense(&self, dense: u32) -> u32 {
        let depth = &self.connectivity.depth;
        let shallower = depth[dense as usize].wrapping_sub(1);
        let up = self.neighbors_dense(dense).iter().find(|&&(w, _)| depth[w as usize] == shallower);
        up.map_or(dense, |&(w, _)| w)
    }

    /// The connectivity oracle built with the graph.  The traversal layer
    /// answers `is_connected_with` / shortest-path queries from it — and
    /// from parent walks in the documents it marks as trees — instead of
    /// running BFS.
    pub fn connectivity(&self) -> &ConnectivityIndex {
        &self.connectivity
    }

    /// The `NodeId` of a dense index (inverse of [`DataGraph::dense`]).
    pub fn node_id(&self, dense: u32) -> NodeId {
        let doc = self.doc_offsets.partition_point(|&off| off <= dense) - 1;
        NodeId::new(DocId(doc as u32), dense - self.doc_offsets[doc])
    }

    /// Full neighbour list (tree plus non-tree edges) of a dense node index:
    /// parent first, then children in document order, then cross edges.
    pub fn neighbors_dense(&self, dense: u32) -> &[(u32, EdgeKind)] {
        let dense = dense as usize;
        &self.adj_targets[self.adj_offsets[dense] as usize..self.adj_offsets[dense + 1] as usize]
    }

    /// Number of distinct non-tree edges (each counted once).
    pub fn cross_edge_count(&self) -> usize {
        self.edge_count
    }

    /// All neighbours of a node: parent, children (tree edges from the
    /// document), plus non-tree edges.  The tree edges are materialised in
    /// the CSR adjacency at build time, so no document access is needed.
    pub fn neighbors(&self, node: NodeId) -> Vec<(NodeId, EdgeKind)> {
        match self.dense(node) {
            Some(dense) => self
                .neighbors_dense(dense)
                .iter()
                .map(|&(target, kind)| (self.node_id(target), kind))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The cross-edge (non-[`EdgeKind::ParentChild`]) entries of a dense
    /// node's adjacency.
    pub(crate) fn cross_neighbors_dense(
        &self,
        dense: u32,
    ) -> impl Iterator<Item = (u32, EdgeKind)> + '_ {
        self.neighbors_dense(dense)
            .iter()
            .copied()
            .filter(|&(_, kind)| kind != EdgeKind::ParentChild)
    }

    /// All materialised non-tree edges, each reported once (from < to).
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for (doc, range) in self.doc_offsets.windows(2).enumerate() {
            for dense in range[0]..range[1] {
                // Dense order is `NodeId` order; only the endpoints listed
                // pay for a dense → `NodeId` conversion.
                for (to, kind) in self.cross_neighbors_dense(dense) {
                    if dense < to {
                        let from = NodeId::new(DocId(doc as u32), dense - range[0]);
                        out.push(Edge { from, to: self.node_id(to), kind });
                    }
                }
            }
        }
        out.sort_by_key(|e| (e.from, e.to));
        out
    }

    /// Connected-component id of a document (components over non-tree
    /// edges), or `u32::MAX` for documents outside the graph's collection.
    ///
    /// Components are computed once at build time; the top-k searchers use
    /// them to prune candidate tuples spanning disconnected documents before
    /// paying for a breadth-first connectivity check.
    pub fn doc_component(&self, doc: DocId) -> u32 {
        self.doc_component.get(doc.index()).copied().unwrap_or(u32::MAX)
    }

    /// True when both nodes live in documents of the same connected
    /// component (a necessary condition for tuple connectivity).
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.doc_component(a.doc) == self.doc_component(b.doc)
    }

    /// Number of distinct document components.
    pub fn doc_component_count(&self) -> usize {
        self.doc_component.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0)
    }
}

fn prefix_sums(degrees: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut total = 0u32;
    offsets.push(0);
    for &d in degrees {
        total += d;
        offsets.push(total);
    }
    offsets
}

/// Union-find over documents joined by the given `(doc, doc)` pairs;
/// component ids are assigned densely in ascending document order, so the
/// numbering is deterministic.  The build and the `component-partition`
/// audit both number documents through it.
pub(crate) fn doc_components(docs: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..docs as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    }
    for (a, b) in pairs {
        let a = find(&mut parent, a);
        let b = find(&mut parent, b);
        if a != b {
            parent[a as usize] = b;
        }
    }
    let mut component = vec![0u32; docs];
    let mut ids: HashMap<u32, u32> = HashMap::new();
    let mut next = 0u32;
    for doc in 0..docs as u32 {
        let root = find(&mut parent, doc);
        let id = *ids.entry(root).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        component[doc as usize] = id;
    }
    component
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ValueKeySpec;
    use seda_xmlstore::parse_collection;

    fn mondial_like() -> Collection {
        parse_collection(vec![
            (
                "sea.xml",
                r#"<sea id="sea-1"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/>
                     <bordering country_idref="cty-ph"/>
                   </sea>"#,
            ),
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners></economy>
                   </country>"#,
            ),
            ("ph.xml", r#"<country id="cty-ph"><name>Philippines</name></country>"#),
            (
                "china.xml",
                r#"<country id="cty-cn"><name>China</name>
                     <link href="cty-us"/>
                   </country>"#,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn idref_edges_link_referencing_and_referenced_elements() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        // Two bordering -> country edges plus one XLink edge.
        assert_eq!(g.cross_edge_count(), 3);
        let kinds: Vec<EdgeKind> = g.edges().iter().map(|e| e.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == EdgeKind::IdRef).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == EdgeKind::XLink).count(), 1);
    }

    #[test]
    fn idref_edges_are_symmetric_for_traversal() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        for edge in g.edges() {
            assert!(g.neighbors(edge.from).contains(&(edge.to, edge.kind)));
            assert!(g.neighbors(edge.to).contains(&(edge.from, edge.kind)));
        }
    }

    #[test]
    fn dangling_references_produce_no_edges() {
        let c = parse_collection(vec![(
            "a.xml",
            r#"<root><child thing_idref="does-not-exist"/></root>"#,
        )])
        .unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.cross_edge_count(), 0);
        assert!(only_tree_edges(&c, &g));
    }

    #[test]
    fn a_reference_to_its_own_element_is_no_edge() {
        let c = parse_collection(vec![("a.xml", r#"<a id="x" ref="x"/>"#)]).unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.cross_edge_count(), 0);
        assert_eq!(g.edges().len(), 0);
        assert!(only_tree_edges(&c, &g));
        // Beside a real reference (`c` to its parent), a self-reference
        // still adds nothing.
        let c = parse_collection(vec![(
            "b.xml",
            r#"<b id="y"><c href="y"/><d id="z" idref="z"/></b>"#,
        )])
        .unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.cross_edge_count(), 1);
        assert_eq!(g.edges().len(), 1);
    }

    /// True when no node of the collection has a non-tree neighbour.
    fn only_tree_edges(c: &Collection, g: &DataGraph) -> bool {
        c.documents()
            .flat_map(|doc| doc.node_ids())
            .all(|n| g.neighbors(n).iter().all(|&(_, kind)| kind == EdgeKind::ParentChild))
    }

    #[test]
    fn value_based_edges_link_equal_contents() {
        let c = mondial_like();
        let config = GraphConfig::with_value_keys(vec![ValueKeySpec::new(
            "/country/name",
            "/country/economy/import_partners/item/trade_country",
        )]);
        let g = DataGraph::build(&c, &config);
        let value_edges: Vec<Edge> =
            g.edges().into_iter().filter(|e| e.kind == EdgeKind::ValueBased).collect();
        // The US import partner "China" links to the China country's name.
        assert_eq!(value_edges.len(), 1);
        let contents: Vec<String> =
            vec![c.content(value_edges[0].from).unwrap(), c.content(value_edges[0].to).unwrap()];
        assert!(contents.iter().all(|s| s == "China"));
    }

    #[test]
    fn value_spec_with_unknown_path_is_ignored() {
        let c = mondial_like();
        let config =
            GraphConfig::with_value_keys(vec![ValueKeySpec::new("/nowhere", "/country/name")]);
        let g = DataGraph::build(&c, &config);
        assert!(g.edges().iter().all(|e| e.kind != EdgeKind::ValueBased));
    }

    #[test]
    fn neighbors_combine_tree_and_cross_edges() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        // The US country element (doc 1, root node 0): parent none, children
        // (id attr, name, economy), plus 1 IdRef edge from the sea bordering.
        let us_root = NodeId::new(seda_xmlstore::DocId(1), 0);
        let neighbors = g.neighbors(us_root);
        let tree: usize = neighbors.iter().filter(|(_, k)| *k == EdgeKind::ParentChild).count();
        let cross: usize = neighbors.iter().filter(|(_, k)| *k != EdgeKind::ParentChild).count();
        assert_eq!(tree, 3);
        assert_eq!(cross, 2, "bordering IdRef + XLink from China");
    }

    #[test]
    fn dense_indices_round_trip() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.node_count(), c.total_nodes());
        for doc in c.documents() {
            for id in doc.node_ids() {
                let dense = g.dense(id).expect("every collection node has a dense index");
                assert_eq!(g.node_id(dense), id);
            }
        }
        // Out-of-range lookups are rejected rather than aliased.
        assert!(g.dense(NodeId::new(DocId(99), 0)).is_none());
        let last_doc = c.documents().last().unwrap();
        assert!(g.dense(NodeId::new(last_doc.id, last_doc.len() as u32)).is_none());
    }

    #[test]
    fn build_resolves_references_across_documents() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        // sea.xml references cty-us and cty-ph, defined by later documents;
        // china.xml's XLink names cty-us, defined by an earlier one.
        assert_eq!(g.cross_edge_count(), 3);
        let sea_links: Vec<DocId> = g
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::IdRef)
            .map(|e| if e.from.doc == DocId(0) { e.to.doc } else { e.from.doc })
            .collect();
        assert_eq!(sea_links, vec![DocId(1), DocId(2)]);
    }

    #[test]
    fn build_of_an_empty_collection_is_empty() {
        let g = DataGraph::build(&Collection::new(), &GraphConfig::default());
        assert_eq!(g.cross_edge_count(), 0);
        assert!(g.edges().is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.doc_component_count(), 0);
    }

    #[test]
    fn edge_listing_reports_each_edge_once() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        let edges = g.edges();
        assert_eq!(edges.len(), g.cross_edge_count());
        for e in &edges {
            assert!(e.from < e.to);
        }
    }

    #[test]
    fn doc_components_follow_cross_edges() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        // sea + us + ph + china are all connected (bordering idrefs + xlink):
        // one component spanning all four documents.
        assert_eq!(g.doc_component_count(), 1);
        let first = g.doc_component(DocId(0));
        for doc in c.documents() {
            assert_eq!(g.doc_component(doc.id), first);
        }
        assert_eq!(g.doc_component(DocId(99)), u32::MAX);
    }

    #[test]
    fn doc_components_separate_disconnected_documents() {
        let c = parse_collection(vec![
            ("a.xml", r#"<country id="c1"><name>A</name></country>"#),
            ("b.xml", r#"<sea id="s1"><bordering country_idref="c1"/></sea>"#),
            ("island.xml", r#"<island><name>Lonely</name></island>"#),
        ])
        .unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(g.doc_component_count(), 2);
        assert!(g.same_component(NodeId::new(DocId(0), 0), NodeId::new(DocId(1), 0)));
        assert!(!g.same_component(NodeId::new(DocId(0), 0), NodeId::new(DocId(2), 0)));
    }

    #[test]
    fn doc_components_match_reference_union_find() {
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        // Reference implementation: repeated closure over the edge list.
        let mut component: Vec<usize> = (0..c.len()).collect();
        let edges = g.edges();
        loop {
            let mut changed = false;
            for e in &edges {
                let (a, b) = (e.from.doc.index(), e.to.doc.index());
                let min = component[a].min(component[b]);
                if component[a] != min || component[b] != min {
                    component[a] = min;
                    component[b] = min;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (a, doc_a) in c.documents().enumerate() {
            for (b, doc_b) in c.documents().enumerate() {
                assert_eq!(
                    component[a] == component[b],
                    g.doc_component(doc_a.id) == g.doc_component(doc_b.id),
                    "docs {a} and {b} disagree with the reference partition"
                );
            }
        }
    }

    #[test]
    fn components_are_built_once_per_build() {
        let before = doc_component_builds_on_this_thread();
        let c = mondial_like();
        let g = DataGraph::build(&c, &GraphConfig::default());
        assert_eq!(doc_component_builds_on_this_thread(), before + 1);
        // Reading components any number of times never recomputes them.
        for _ in 0..100 {
            let _ = g.doc_component(DocId(0));
            let _ = g.same_component(NodeId::new(DocId(0), 0), NodeId::new(DocId(1), 0));
        }
        assert_eq!(doc_component_builds_on_this_thread(), before + 1);
    }
}
