//! The SEDA data graph (Definition 2).

use std::cell::Cell;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId, NodeId, NodeKind};

use crate::config::GraphConfig;
use crate::connectivity::{centroid_tree_labels, ConnectivityIndex};

/// Kind of an edge in the data graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// Document components are a build-time artifact of [`DataGraph::merge`];
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
/// path is an array access instead of a `HashMap` probe.  Two adjacency lists
/// are materialised at merge time:
///
/// * the **full adjacency** (tree edges implicit in the documents plus all
///   non-tree edges), which BFS/compactness traverse, and
/// * the **cross-edge adjacency** (IDREF, XLink and value-based edges only,
///   symmetric: every edge is stored under both endpoints), which backs
///   [`DataGraph::cross_neighbors`] and [`DataGraph::edges`].
///
/// The per-document connected components over cross edges (the pruning
/// structure the top-k searchers use) are computed once here as well.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataGraph {
    /// Prefix sums of document node counts: dense index of `(doc, ord)` is
    /// `doc_offsets[doc.index()] + ord`; length is `#docs + 1`.
    pub(crate) doc_offsets: Vec<u32>,
    /// Full adjacency offsets, length `node_count + 1`.
    pub(crate) adj_offsets: Vec<u32>,
    /// Full adjacency targets as dense indices (parent first, then children
    /// in document order, then cross edges in insertion order).
    pub(crate) adj_targets: Vec<(u32, EdgeKind)>,
    /// Cross-edge adjacency offsets, length `node_count + 1`.
    pub(crate) cross_offsets: Vec<u32>,
    /// Cross-edge targets (symmetric), in edge insertion order.
    pub(crate) cross_targets: Vec<(NodeId, EdgeKind)>,
    /// Connected-component id of every document (components over cross
    /// edges), indexed by document.
    pub(crate) doc_component: Vec<u32>,
    /// Precomputed distance labels (the connectivity oracle), built at merge
    /// time from the shard tree labels plus a landmark pass over cross-linked
    /// components.
    pub(crate) connectivity: ConnectivityIndex,
    pub(crate) edge_count: usize,
    id_nodes: usize,
    idref_nodes: usize,
    value_pairs: usize,
}

/// Per-document raw material for the data graph, produced by
/// [`DataGraph::build_shard`] and resolved across documents by
/// [`DataGraph::merge`].
///
/// The shard phase records everything that can be discovered from a single
/// document — ID definitions, IDREF/XLink references, and the contents of
/// value-key endpoints — without resolving anything.  Resolution (ID lookup
/// and value joins) is inherently cross-document and happens once at merge
/// time over the combined symbol maps.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphShard {
    doc: Option<DocId>,
    /// `(id value, owning element)` pairs, in document order.
    id_entries: Vec<(String, NodeId)>,
    /// `(referencing element, lookup key, kind)` triples, in document order.
    references: Vec<(NodeId, String, EdgeKind)>,
    /// Referencing attribute instances seen (including unresolvable ones).
    reference_attrs: usize,
    /// Per value-key spec: `(content, node)` pairs on the primary side.
    primary_values: Vec<Vec<(String, NodeId)>>,
    /// Per value-key spec: `(content, node)` pairs on the foreign side.
    foreign_values: Vec<Vec<(String, NodeId)>>,
    /// Centroid-decomposition label offsets of the document tree, length
    /// `doc len + 1`.  Adopted at merge for documents that end up with no
    /// cross edges; discarded (and replaced by hub labels) otherwise.
    pub(crate) tree_offsets: Vec<u32>,
    /// Tree label keys: centroid ordinals within the document.
    pub(crate) tree_hubs: Vec<u32>,
    /// Tree label distances (parallel to `tree_hubs`).
    pub(crate) tree_dists: Vec<u16>,
}

impl GraphShard {
    /// The document this shard was built from.
    pub fn doc(&self) -> Option<DocId> {
        self.doc
    }

    /// Number of ID attribute instances recorded in this shard.
    pub fn id_entry_count(&self) -> usize {
        self.id_entries.len()
    }

    /// Number of IDREF/XLink attribute instances seen in this shard.
    pub fn reference_attribute_count(&self) -> usize {
        self.reference_attrs
    }
}

impl DataGraph {
    /// Builds the data graph over a collection.
    ///
    /// * IDREF/XLink edges connect the *element owning* the referencing
    ///   attribute to the *element owning* the referenced ID attribute.
    /// * Value-based edges connect the nodes named by the configured
    ///   [`crate::config::ValueKeySpec`]s whenever their contents are equal.
    ///
    /// This is the sequential reference path; it is equivalent to building
    /// one shard per document with [`DataGraph::build_shard`] and resolving
    /// them with [`DataGraph::merge`].
    pub fn build(collection: &Collection, config: &GraphConfig) -> Self {
        let shards = collection
            .documents()
            .map(|doc| Self::build_shard(collection, doc.id, config))
            .collect();
        Self::merge(collection, shards)
    }

    /// Scans a single document for graph raw material (the per-shard phase):
    /// ID definitions, IDREF/XLink references and value-key endpoint
    /// contents.  No cross-document resolution happens here.
    pub fn build_shard(collection: &Collection, doc: DocId, config: &GraphConfig) -> GraphShard {
        let mut shard = GraphShard { doc: Some(doc), ..GraphShard::default() };
        let Ok(document) = collection.document(doc) else { return shard };

        for (_, node) in document.iter() {
            if node.kind != NodeKind::Attribute {
                continue;
            }
            let name = collection.symbols().resolve(node.name);
            if config.is_id_attribute(name) {
                if let (Some(value), Some(parent)) = (node.text.as_deref(), node.parent) {
                    shard.id_entries.push((value.trim().to_string(), NodeId::new(doc, parent)));
                }
            }
            let kind = if config.is_idref_attribute(name) {
                Some(EdgeKind::IdRef)
            } else if config.is_xlink_attribute(name) {
                Some(EdgeKind::XLink)
            } else {
                None
            };
            let Some(kind) = kind else { continue };
            shard.reference_attrs += 1;
            let Some(parent) = node.parent else { continue };
            let Some(value) = node.text.as_deref() else { continue };
            // XLink values may carry a fragment (`doc.xml#id`); use the
            // fragment if present.
            let key = value.rsplit('#').next().unwrap_or(value).trim();
            shard.references.push((NodeId::new(doc, parent), key.to_string(), kind));
        }

        // Value-key endpoints of this document, per spec.
        shard.primary_values = Vec::with_capacity(config.value_keys.len());
        shard.foreign_values = Vec::with_capacity(config.value_keys.len());
        for spec in &config.value_keys {
            let mut primary = Vec::new();
            let mut foreign = Vec::new();
            if let Some(path) = collection.paths().get_str(collection.symbols(), &spec.primary_path)
            {
                for ordinal in document.nodes_with_path(path) {
                    primary.push((document.content(ordinal), NodeId::new(doc, ordinal)));
                }
            }
            if let Some(path) = collection.paths().get_str(collection.symbols(), &spec.foreign_path)
            {
                for ordinal in document.nodes_with_path(path) {
                    foreign.push((document.content(ordinal), NodeId::new(doc, ordinal)));
                }
            }
            shard.primary_values.push(primary);
            shard.foreign_values.push(foreign);
        }

        // Tree distance labels of this document (parent/child edges only, in
        // the same order the merged CSR adjacency will use).  The merge phase
        // adopts them verbatim for documents that end up with no cross edges.
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); document.len()];
        for (ordinal, node) in document.iter() {
            let slot = &mut adj[ordinal as usize];
            if let Some(parent) = node.parent {
                slot.push(parent);
            }
            slot.extend_from_slice(&node.children);
        }
        let (tree_offsets, tree_hubs, tree_dists) = centroid_tree_labels(&adj);
        shard.tree_offsets = tree_offsets;
        shard.tree_hubs = tree_hubs;
        shard.tree_dists = tree_dists;
        shard
    }

    /// Resolves per-document shards into the full data graph (the merge phase
    /// of the shard → merge build lifecycle): ID/IDREF and XLink references
    /// are looked up in the combined ID map, value-key joins run over the
    /// combined endpoint lists, and the CSR adjacency plus the per-document
    /// components are materialised over the collection's node arenas.
    ///
    /// Shards are processed in ascending document order regardless of input
    /// order, so the result is deterministic and identical to the sequential
    /// [`DataGraph::build`].
    pub fn merge(collection: &Collection, mut shards: Vec<GraphShard>) -> Self {
        shards.sort_by_key(|s| s.doc);

        // Dense node numbering: prefix sums of document lengths.
        let mut doc_offsets = Vec::with_capacity(collection.len() + 1);
        doc_offsets.push(0);
        let mut total = 0u32;
        for doc in collection.documents() {
            total += doc.len() as u32;
            doc_offsets.push(total);
        }
        let mut graph = DataGraph { doc_offsets, ..DataGraph::default() };

        // Phase 1: combined ID map.  Later documents overwrite earlier ones
        // for a duplicated ID value, matching the sequential build.
        let mut id_map: HashMap<String, NodeId> = HashMap::new();
        for shard in &shards {
            for (value, owner) in &shard.id_entries {
                id_map.insert(value.clone(), *owner);
                graph.id_nodes += 1;
            }
        }

        // Phase 2 + 3 collect resolved cross edges before the CSR is frozen.
        let mut edges: Vec<Edge> = Vec::new();

        // Phase 2: resolve IDREF / XLink references.
        for shard in &shards {
            graph.idref_nodes += shard.reference_attrs;
            for (source, key, kind) in &shard.references {
                if let Some(&target) = id_map.get(key.as_str()) {
                    edges.push(Edge { from: *source, to: target, kind: *kind });
                }
            }
        }

        // Phase 3: value-based joins over the combined endpoint lists.
        let spec_count = shards.iter().map(|s| s.primary_values.len()).max().unwrap_or(0);
        for spec in 0..spec_count {
            let mut primary_values: HashMap<&str, Vec<NodeId>> = HashMap::new();
            for shard in &shards {
                for (content, node) in shard.primary_values.get(spec).into_iter().flatten() {
                    primary_values.entry(content.as_str()).or_default().push(*node);
                }
            }
            for shard in &shards {
                for (content, node) in shard.foreign_values.get(spec).into_iter().flatten() {
                    if let Some(targets) = primary_values.get(content.as_str()) {
                        for &target in targets {
                            if target != *node {
                                edges.push(Edge {
                                    from: *node,
                                    to: target,
                                    kind: EdgeKind::ValueBased,
                                });
                                graph.value_pairs += 1;
                            }
                        }
                    }
                }
            }
        }
        graph.edge_count = edges.len();

        graph.freeze_adjacency(collection, &edges);
        graph.doc_component = compute_doc_components(collection.len(), &edges);
        let connectivity = ConnectivityIndex::assemble(collection, &graph, &shards, &edges);
        graph.connectivity = connectivity;
        graph
    }

    /// Builds both CSR adjacency lists from the resolved cross edges.
    fn freeze_adjacency(&mut self, collection: &Collection, edges: &[Edge]) {
        let node_count = self.node_count();

        // Cross-edge CSR (symmetric).  Two counting passes keep the per-node
        // target order identical to the former per-node `Vec` push order.
        let mut cross_degree = vec![0u32; node_count];
        for edge in edges {
            cross_degree[self.dense_unchecked(edge.from) as usize] += 1;
            cross_degree[self.dense_unchecked(edge.to) as usize] += 1;
        }
        self.cross_offsets = prefix_sums(&cross_degree);
        let mut cursor: Vec<u32> = self.cross_offsets[..node_count].to_vec();
        self.cross_targets =
            vec![(NodeId::new(DocId(0), 0), EdgeKind::ParentChild); edges.len() * 2];
        for edge in edges {
            for (a, b) in [(edge.from, edge.to), (edge.to, edge.from)] {
                let slot = &mut cursor[self.dense_unchecked(a) as usize];
                self.cross_targets[*slot as usize] = (b, edge.kind);
                *slot += 1;
            }
        }

        // Full adjacency CSR: parent, children (document order), then cross
        // edges — the same neighbour order the HashMap-based graph produced.
        let mut adj_degree = vec![0u32; node_count];
        for doc in collection.documents() {
            let base = self.doc_offsets[doc.id.index()];
            for (ordinal, node) in doc.iter() {
                let dense = (base + ordinal) as usize;
                adj_degree[dense] = node.parent.map(|_| 1).unwrap_or(0)
                    + node.children.len() as u32
                    + cross_degree[dense];
            }
        }
        self.adj_offsets = prefix_sums(&adj_degree);
        let total = *self.adj_offsets.last().unwrap_or(&0) as usize;
        self.adj_targets = vec![(0u32, EdgeKind::ParentChild); total];
        for doc in collection.documents() {
            let base = self.doc_offsets[doc.id.index()];
            for (ordinal, node) in doc.iter() {
                let dense = (base + ordinal) as usize;
                let mut slot = self.adj_offsets[dense] as usize;
                if let Some(parent) = node.parent {
                    self.adj_targets[slot] = (base + parent, EdgeKind::ParentChild);
                    slot += 1;
                }
                for &child in &node.children {
                    self.adj_targets[slot] = (base + child, EdgeKind::ParentChild);
                    slot += 1;
                }
                let cross =
                    self.cross_offsets[dense] as usize..self.cross_offsets[dense + 1] as usize;
                for i in cross {
                    let (target, kind) = self.cross_targets[i];
                    self.adj_targets[slot] = (self.dense_unchecked(target), kind);
                    slot += 1;
                }
            }
        }
    }

    /// Total number of nodes addressable in the graph (the collection's node
    /// count at merge time).
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

    /// Dense index of a document's first node (ordinal 0).
    pub(crate) fn doc_base(&self, doc: DocId) -> u32 {
        self.doc_offsets[doc.index()]
    }

    /// The precomputed connectivity oracle (distance labels built at merge
    /// time).  The traversal layer answers `is_connected_with` / shortest-path
    /// queries from it instead of running BFS.
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

    /// Number of ID attribute instances seen.
    pub fn id_attribute_count(&self) -> usize {
        self.id_nodes
    }

    /// Number of IDREF/XLink attribute instances seen.
    pub fn reference_attribute_count(&self) -> usize {
        self.idref_nodes
    }

    /// Non-tree neighbours of a node.
    pub fn cross_neighbors(&self, node: NodeId) -> &[(NodeId, EdgeKind)] {
        match self.dense(node) {
            Some(dense) => {
                let dense = dense as usize;
                &self.cross_targets
                    [self.cross_offsets[dense] as usize..self.cross_offsets[dense + 1] as usize]
            }
            None => &[],
        }
    }

    /// All neighbours of a node: parent, children (tree edges from the
    /// document), plus non-tree edges.  The tree edges are materialised in
    /// the CSR adjacency at merge time, so no document access is needed.
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

    /// All materialised non-tree edges, each reported once (from < to).
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for dense in 0..self.node_count() {
            // Walk the cross CSR directly; only endpoints of actual edges pay
            // for a dense → NodeId conversion.
            let range = self.cross_offsets[dense] as usize..self.cross_offsets[dense + 1] as usize;
            if range.is_empty() {
                continue;
            }
            let from = self.node_id(dense as u32);
            for &(to, kind) in &self.cross_targets[range] {
                if from < to {
                    out.push(Edge { from, to, kind });
                }
            }
        }
        out.sort_by_key(|e| (e.from, e.to));
        out
    }

    /// Connected-component id of a document (components over non-tree
    /// edges), or `u32::MAX` for documents outside the graph's collection.
    ///
    /// Components are computed once at merge time; the top-k searchers use
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

/// Union-find over documents connected by cross edges; component ids are
/// assigned densely in ascending document order, so the numbering is
/// deterministic.
fn compute_doc_components(docs: usize, edges: &[Edge]) -> Vec<u32> {
    COMPONENT_BUILDS.with(|c| c.set(c.get() + 1));
    let mut parent: Vec<u32> = (0..docs as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    }
    for edge in edges {
        let a = find(&mut parent, edge.from.doc.0);
        let b = find(&mut parent, edge.to.doc.0);
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
            assert!(g.cross_neighbors(edge.from).iter().any(|(n, _)| *n == edge.to));
            assert!(g.cross_neighbors(edge.to).iter().any(|(n, _)| *n == edge.from));
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
        assert_eq!(g.reference_attribute_count(), 1);
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
    fn merged_shards_equal_sequential_build() {
        let c = mondial_like();
        let config = GraphConfig::with_value_keys(vec![ValueKeySpec::new(
            "/country/name",
            "/country/economy/import_partners/item/trade_country",
        )]);
        let sequential = DataGraph::build(&c, &config);
        let mut shards: Vec<GraphShard> =
            c.documents().map(|doc| DataGraph::build_shard(&c, doc.id, &config)).collect();
        shards.reverse(); // merge must not depend on shard order
        let merged = DataGraph::merge(&c, shards);
        assert_eq!(merged, sequential);
        assert_eq!(merged.cross_edge_count(), sequential.cross_edge_count());
    }

    #[test]
    fn shards_record_unresolved_references() {
        let c =
            parse_collection(vec![("a.xml", r#"<root><child thing_idref="elsewhere"/></root>"#)])
                .unwrap();
        let doc = c.documents().next().unwrap().id;
        let shard = DataGraph::build_shard(&c, doc, &GraphConfig::default());
        assert_eq!(shard.reference_attribute_count(), 1);
        assert_eq!(shard.id_entry_count(), 0);
        // The dangling reference survives to the merge but resolves to nothing.
        let merged = DataGraph::merge(&c, vec![shard]);
        assert_eq!(merged.cross_edge_count(), 0);
        assert_eq!(merged.reference_attribute_count(), 1);
    }

    #[test]
    fn merge_resolves_references_across_shards() {
        let c = mondial_like();
        let shards: Vec<GraphShard> = c
            .documents()
            .map(|doc| DataGraph::build_shard(&c, doc.id, &GraphConfig::default()))
            .collect();
        // sea.xml references cty-us / cty-ph, which live in other shards.
        let merged = DataGraph::merge(&c, shards);
        assert_eq!(merged.cross_edge_count(), 3);
    }

    #[test]
    fn merge_of_no_shards_is_empty() {
        let merged = DataGraph::merge(&Collection::new(), Vec::new());
        assert_eq!(merged.cross_edge_count(), 0);
        assert!(merged.edges().is_empty());
        assert_eq!(merged.node_count(), 0);
        assert_eq!(merged.doc_component_count(), 0);
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
    fn components_are_built_once_per_merge() {
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
