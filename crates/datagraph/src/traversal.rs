//! Graph traversal: shortest paths, connectedness of result tuples, and the
//! compactness measure used by the top-k scoring function.
//!
//! Definition 4 of the paper requires a query result tuple `<n1 … nm>` to be
//! witnessed by a *connected* subgraph of the data graph, and Sec. 4 scores
//! tuples by "the compactness of the graph representing a tuple of nodes":
//! smaller connecting subgraphs are better.  Computing the minimal connecting
//! subtree (a Steiner tree) is NP-hard in general, so — like every practical
//! system — we approximate it with a minimum spanning tree over the pairwise
//! shortest-path distances of the tuple's nodes.
//!
//! No distance is searched for ([`crate::ConnectivityIndex`]): inside a
//! document no cross edge touches it is a parent walk to the lowest common
//! ancestor, inside the documents cross edges touch a hub-label
//! intersection.  Both are exact up to [`MAX_DEPTH`], so a distance `d` is
//! returned iff `d <= max_depth.min(MAX_DEPTH)` — a deeper bound is clamped.
//! A caller with one source and a batch of targets [`pin`]s the source.
//!
//! Every function takes a caller-owned [`TraversalScratch`] (a one-off caller
//! passes `&mut TraversalScratch::new()`): the probe counter, the pinned
//! source's scattered label and the spanning-tree buffers.

use seda_xmlstore::NodeId;

use crate::connectivity::{MAX_DEPTH, NO_ENTRY};
use crate::graph::{DataGraph, EdgeKind};

/// A hop on a connection path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Node reached by this hop.
    pub node: NodeId,
    /// Edge kind used to reach it.
    pub kind: EdgeKind,
}

const UNSET: u32 = u32::MAX;

/// Reusable traversal state: the label-probe counter, the scattered label of
/// a [`PinnedSource`], and the small spanning-tree buffers of the compactness
/// computation.
///
/// One scratch serves any number of queries over graphs of any size (the
/// buffers grow on demand); reuse it across queries to keep the read path
/// allocation-free.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// Pairwise-distance matrix of the compactness computation (row-major,
    /// `UNSET` for unreachable), reused across tuples.
    matrix: Vec<u32>,
    in_tree: Vec<bool>,
    best: Vec<u32>,
    /// The scattered label of the current hub [`PinnedSource`], one `u16`
    /// per label slot (2 bytes a node, none without cross edges), all
    /// `NO_ENTRY` whenever no source is pinned — a leftover entry
    /// would shorten later distances ([`TraversalScratch::verify`]).
    pub(crate) pinned: Vec<u16>,
    /// Total label entries scanned and parent steps walked by distance
    /// queries through this scratch (monotonic; the query profile reports
    /// deltas).
    pub label_probes: u64,
}

impl TraversalScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        TraversalScratch::default()
    }
}

/// The one reading of a label distance `d` under a depth bound: the true
/// distance when `d <= max_depth.min(MAX_DEPTH)`, and otherwise proof that no
/// path within the (clamped) bound exists — hub labels are exact up to
/// [`MAX_DEPTH`] and never under-estimate beyond it.
fn within(d: u32, max_depth: usize) -> Option<u32> {
    (d as usize <= max_depth.min(MAX_DEPTH)).then_some(d)
}

/// Walks two dense nodes of one tree document up to their lowest common
/// ancestor: while they differ, the larger index — later in preorder, so not
/// an ancestor of the other — steps to its parent, and `step(from_a, node)`
/// sees the node `a`'s side reaches or the node `b`'s side leaves.  One probe
/// a step.  Returns the step count, which is the tree distance, or `None`
/// once it would exceed `max_depth.min(MAX_DEPTH)`.
fn climb(
    graph: &DataGraph,
    (mut a, mut b): (u32, u32),
    max_depth: usize,
    probes: &mut u64,
    mut step: impl FnMut(bool, u32),
) -> Option<u32> {
    let limit = max_depth.min(MAX_DEPTH) as u32;
    let mut steps = 0;
    while a != b {
        if steps == limit {
            return None;
        }
        steps += 1;
        *probes += 1;
        if a > b {
            a = graph.parent_dense(a);
            step(true, a);
        } else {
            step(false, b);
            b = graph.parent_dense(b);
        }
    }
    Some(steps)
}

/// Whether two nodes can be connected at all: not across components, and
/// not through an oracle built over another graph.
fn may_connect(graph: &DataGraph, a: NodeId, b: NodeId) -> bool {
    graph.same_component(a, b) && graph.connectivity().covers(graph.doc_count())
}

/// Bounded shortest-path distance between two nodes of the graph: a parent
/// walk in a tree document, a label intersection in the hub documents.
fn oracle_distance(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    a: NodeId,
    b: NodeId,
    da: u32,
    db: u32,
    max_depth: usize,
) -> Option<u32> {
    if da == db {
        return Some(0);
    }
    if !may_connect(graph, a, b) {
        return None;
    }
    let oracle = graph.connectivity();
    let probes = &mut scratch.label_probes;
    if oracle.is_hub(a.doc) {
        within(oracle.label_distance(da, db, probes), max_depth)
    } else {
        climb(graph, (da, db), max_depth, probes, |_, _| {})
    }
}

/// Shortest-path distance between two nodes (number of edges), bounded by
/// `max_depth` (clamped to [`MAX_DEPTH`]); `None` when no path exists within
/// the bound.
pub fn shortest_distance_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    a: NodeId,
    b: NodeId,
    max_depth: usize,
) -> Option<usize> {
    if a == b {
        return Some(0);
    }
    let (da, db) = (graph.dense(a)?, graph.dense(b)?);
    oracle_distance(graph, scratch, a, b, da, db, max_depth).map(|d| d as usize)
}

/// A source node ready for a batch of [`PinnedSource::distance_to`]
/// queries, made by [`pin`].  It holds the scratch for as long as it lives
/// and takes a hub source's scattered entries back out when it drops, so a
/// `break`, a `?` or an unwinding panic in the caller's loop leaves the
/// scratch as clean as a normal exit does.
pub struct PinnedSource<'a> {
    graph: &'a DataGraph,
    scratch: &'a mut TraversalScratch,
    source: NodeId,
    dense: u32,
    /// Whether the source lies in a hub document (its label is scattered).
    hub: bool,
}

/// Pins `source` for a batch of [`PinnedSource::distance_to`] queries — the
/// one-to-many form of [`shortest_distance_with`].  A source in a hub
/// document scatters its label once (`|L(source)|` probes) so each query
/// reads `|L(target)|` entries with no data-dependent branch, which pays over
/// long labels and many targets; a source in a tree document scatters
/// nothing and each query walks.  `None` when `source` lies outside the
/// graph or the graph's oracle does not cover it.
pub fn pin<'a>(
    graph: &'a DataGraph,
    scratch: &'a mut TraversalScratch,
    source: NodeId,
) -> Option<PinnedSource<'a>> {
    let dense = graph.dense(source)?;
    let oracle = graph.connectivity();
    if !oracle.covers(graph.doc_count()) {
        return None;
    }
    let hub = oracle.is_hub(source.doc);
    if hub {
        // Label keys are hub ranks, below the number of label slots.
        scratch.pinned.resize(scratch.pinned.len().max(oracle.slots()), NO_ENTRY);
        if !oracle.scatter(dense, &mut scratch.pinned, &mut scratch.label_probes) {
            return None;
        }
    }
    Some(PinnedSource { graph, scratch, source, dense, hub })
}

impl PinnedSource<'_> {
    /// Exactly [`shortest_distance_with`]`(source, target, max_depth)`: the
    /// same component rule and the same reading of the distance.
    pub fn distance_to(&mut self, target: NodeId, max_depth: usize) -> Option<usize> {
        if target == self.source {
            return Some(0);
        }
        let target_dense = self.graph.dense(target)?;
        if !self.graph.same_component(self.source, target) {
            return None;
        }
        let probes = &mut self.scratch.label_probes;
        let d = if self.hub {
            let oracle = self.graph.connectivity();
            within(oracle.pinned_distance(&self.scratch.pinned, target_dense, probes), max_depth)
        } else {
            climb(self.graph, (self.dense, target_dense), max_depth, probes, |_, _| {})
        };
        d.map(|d| d as usize)
    }
}

impl Drop for PinnedSource<'_> {
    fn drop(&mut self) {
        // Writes the slots `scatter` wrote, so it cannot go out of bounds.
        if self.hub {
            self.graph.connectivity().unscatter(self.dense, &mut self.scratch.pinned);
        }
    }
}

/// Shortest path between two nodes as the sequence of intermediate hops
/// (excluding `a`, including `b`), bounded by `max_depth` (clamped to
/// [`MAX_DEPTH`]).  The returned hop vector is freshly allocated (it escapes
/// the scratch's lifetime).
///
/// In a tree document the path is the only one there is: the climb from `a`
/// to the lowest common ancestor, then the descent to `b`.  In the hub
/// documents each hop steps to the first CSR neighbour whose label distance
/// to `b` is one less, so the neighbour order (parent, children, cross
/// edges) breaks ties between equally short paths.
pub fn shortest_path_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    a: NodeId,
    b: NodeId,
    max_depth: usize,
) -> Option<Vec<Hop>> {
    if a == b {
        return Some(Vec::new());
    }
    let (da, db) = (graph.dense(a)?, graph.dense(b)?);
    let oracle = graph.connectivity();
    if !oracle.is_hub(a.doc) {
        if !may_connect(graph, a, b) {
            return None;
        }
        let (mut up, mut down) = (Vec::new(), Vec::new());
        climb(graph, (da, db), max_depth, &mut scratch.label_probes, |from_a, node| {
            if from_a {
                up.push(node);
            } else {
                down.push(node);
            }
        })?;
        let hop = |dense| Hop { node: graph.node_id(dense), kind: EdgeKind::ParentChild };
        return Some(up.into_iter().chain(down.into_iter().rev()).map(hop).collect());
    }
    let total = oracle_distance(graph, scratch, a, b, da, db, max_depth)?;
    let mut path = Vec::with_capacity(total as usize);
    let mut current = da;
    for remaining in (1..=total).rev() {
        // Every distance on the way is below `total <= MAX_DEPTH`, so a label
        // distance of `remaining - 1` is the true distance.
        let &(next, kind) = graph
            .neighbors_dense(current)
            .iter()
            .find(|&&(next, _)| {
                if remaining == 1 {
                    next == db
                } else {
                    oracle.label_distance(next, db, &mut scratch.label_probes) == remaining - 1
                }
            })
            .expect("invariant: exact labels put a neighbour one hop closer (labels-sound)");
        path.push(Hop { node: graph.node_id(next), kind });
        current = next;
    }
    Some(path)
}

/// Fills `scratch.matrix` (row-major, `UNSET` = unreachable) with the
/// pairwise bounded shortest-path distances of `nodes`, one oracle probe per
/// pair.
fn fill_distance_matrix(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    nodes: &[NodeId],
    max_depth: usize,
) {
    let n = nodes.len();
    scratch.matrix.clear();
    scratch.matrix.resize(n * n, UNSET);
    for (i, &a) in nodes.iter().enumerate() {
        if graph.dense(a).is_some() {
            scratch.matrix[i * n + i] = 0;
        }
    }
    for i in 0..n {
        let Some(di) = graph.dense(nodes[i]) else { continue };
        for j in (i + 1)..n {
            let Some(dj) = graph.dense(nodes[j]) else { continue };
            if let Some(d) = oracle_distance(graph, scratch, nodes[i], nodes[j], di, dj, max_depth)
            {
                scratch.matrix[i * n + j] = d;
                scratch.matrix[j * n + i] = d;
            }
        }
    }
}

/// True when the tuple of nodes is connected in the data graph (every node is
/// reachable from the first within `max_depth` hops, clamped to
/// [`MAX_DEPTH`]).  This is the witness requirement of Definition 4.
pub fn is_connected_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    nodes: &[NodeId],
    max_depth: usize,
) -> bool {
    if nodes.len() <= 1 {
        return true;
    }
    // Reachability from the first node suffices (the graph is undirected for
    // traversal purposes).
    let Some(first) = graph.dense(nodes[0]) else { return false };
    nodes[1..].iter().all(|&n| {
        graph.dense(n).is_some_and(|dn| {
            oracle_distance(graph, scratch, nodes[0], n, first, dn, max_depth).is_some()
        })
    })
}

/// Size (total edge count) of an approximate minimal connecting subtree of the
/// tuple: a minimum spanning tree over the pairwise shortest-path distances.
/// `None` when the tuple is not connected within `max_depth`.
pub fn connecting_tree_size_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    nodes: &[NodeId],
    max_depth: usize,
) -> Option<usize> {
    let n = nodes.len();
    if n <= 1 {
        return Some(0);
    }
    if n == 2 {
        // The connecting tree of a pair is its shortest path: answer with one
        // oracle probe instead of the matrix + Prim machinery.  Pairs are the
        // dominant tuple shape of two-term queries, so this is the hot path.
        return shortest_distance_with(graph, scratch, nodes[0], nodes[1], max_depth);
    }
    fill_distance_matrix(graph, scratch, nodes, max_depth);
    // Prim's algorithm over the complete terminal graph.
    scratch.in_tree.clear();
    scratch.in_tree.resize(n, false);
    scratch.best.clear();
    scratch.best.resize(n, UNSET);
    scratch.best[0] = 0;
    let mut total = 0usize;
    for _ in 0..n {
        let next = (0..n)
            .filter(|&i| !scratch.in_tree[i])
            .min_by_key(|&i| scratch.best[i])
            .expect("invariant: the non-tree branch holds at least one node outside the tree");
        if scratch.best[next] == UNSET {
            return None; // disconnected
        }
        scratch.in_tree[next] = true;
        total += scratch.best[next] as usize;
        for other in 0..n {
            if scratch.in_tree[other] {
                continue;
            }
            let d = scratch.matrix[next * n + other];
            if d < scratch.best[other] {
                scratch.best[other] = d;
            }
        }
    }
    Some(total)
}

/// The compactness score of a tuple: `1 / (1 + size of the approximate
/// connecting subtree)`.  Tuples that are not connected within `max_depth`
/// score 0 and should be discarded by callers.
pub fn compactness_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    nodes: &[NodeId],
    max_depth: usize,
) -> f64 {
    match connecting_tree_size_with(graph, scratch, nodes, max_depth) {
        Some(size) => 1.0 / (1.0 + size as f64),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphConfig;
    use seda_xmlstore::{parse_collection, Collection, DocId};

    /// Depth bounds on both sides of `MAX_DEPTH`, where hub labelling stops.
    const DEPTHS: [usize; 9] = [0, 1, 2, 5, 12, 16, 17, 40, 100];

    fn setup() -> (Collection, DataGraph) {
        let c = parse_collection(vec![
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name>
                     <economy>
                       <import_partners>
                         <item><trade_country>China</trade_country><percentage>15</percentage></item>
                         <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                       </import_partners>
                     </economy>
                   </country>"#,
            ),
            (
                "sea.xml",
                r#"<sea id="sea-pac"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/>
                   </sea>"#,
            ),
            ("island.xml", r#"<island id="isl-1"><name>Lonely Island</name></island>"#),
        ])
        .unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        (c, g)
    }

    fn find(c: &Collection, path: &str, content: &str) -> NodeId {
        let pid = c.paths().get_str(c.symbols(), path).unwrap();
        c.nodes_with_path(pid).into_iter().find(|&n| c.content(n).unwrap() == content).unwrap()
    }

    #[test]
    fn sibling_leaves_are_two_hops_apart() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let china = find(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = find(&c, "/country/economy/import_partners/item/percentage", "15");
        assert_eq!(shortest_distance_with(&g, s, china, pct15, 10), Some(2));
        // China and the *other* item's percentage are four hops apart.
        let pct169 = find(&c, "/country/economy/import_partners/item/percentage", "16.9");
        assert_eq!(shortest_distance_with(&g, s, china, pct169, 10), Some(4));
    }

    #[test]
    fn cross_document_paths_use_idref_edges() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let us_name = find(&c, "/country/name", "United States");
        let sea_name = find(&c, "/sea/name", "Pacific Ocean");
        // name -> country -(IdRef via bordering)-> ... -> sea -> name
        let d = shortest_distance_with(&g, s, us_name, sea_name, 10).unwrap();
        assert_eq!(d, 4);
        let path = shortest_path_with(&g, s, us_name, sea_name, 10).unwrap();
        assert_eq!(path.len(), d);
        assert!(path.iter().any(|h| h.kind == EdgeKind::IdRef));
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let us_name = find(&c, "/country/name", "United States");
        let island = find(&c, "/island/name", "Lonely Island");
        assert_eq!(shortest_distance_with(&g, s, us_name, island, 12), None);
        assert!(!is_connected_with(&g, s, &[us_name, island], 12));
        assert_eq!(compactness_with(&g, s, &[us_name, island], 12), 0.0);
    }

    #[test]
    fn max_depth_bounds_the_search() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let us_name = find(&c, "/country/name", "United States");
        let sea_name = find(&c, "/sea/name", "Pacific Ocean");
        assert_eq!(shortest_distance_with(&g, s, us_name, sea_name, 2), None);
        assert_eq!(shortest_distance_with(&g, s, us_name, sea_name, 4), Some(4));
    }

    #[test]
    fn connected_tuples_and_compactness() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let china = find(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = find(&c, "/country/economy/import_partners/item/percentage", "15");
        let pct169 = find(&c, "/country/economy/import_partners/item/percentage", "16.9");
        let us_name = find(&c, "/country/name", "United States");

        assert!(is_connected_with(&g, s, &[us_name, china, pct15], 10));
        // The tighter tuple (China with its own percentage sibling) is more
        // compact than the mismatched tuple (China with Canada's percentage).
        let tight = compactness_with(&g, s, &[us_name, china, pct15], 10);
        let loose = compactness_with(&g, s, &[us_name, china, pct169], 10);
        assert!(tight > loose, "tight={tight} loose={loose}");
    }

    #[test]
    fn singleton_and_empty_tuples_are_trivially_connected() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let us_name = find(&c, "/country/name", "United States");
        assert!(is_connected_with(&g, s, &[us_name], 1));
        assert!(is_connected_with(&g, s, &[], 1));
        assert_eq!(connecting_tree_size_with(&g, s, &[us_name], 1), Some(0));
        assert_eq!(connecting_tree_size_with(&g, s, &[], 1), Some(0));
        assert_eq!(compactness_with(&g, s, &[us_name], 1), 1.0);
    }

    #[test]
    fn shortest_path_endpoints_and_self_path() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let us_name = find(&c, "/country/name", "United States");
        assert_eq!(shortest_path_with(&g, s, us_name, us_name, 5), Some(vec![]));
        let root = NodeId::new(DocId(0), 0);
        let p = shortest_path_with(&g, s, us_name, root, 5).unwrap();
        assert_eq!(p.last().unwrap().node, root);
    }

    #[test]
    fn distance_matrix_is_symmetric() {
        let (c, g) = setup();
        let s = &mut TraversalScratch::new();
        let china = find(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = find(&c, "/country/economy/import_partners/item/percentage", "15");
        let us_name = find(&c, "/country/name", "United States");
        fill_distance_matrix(&g, s, &[us_name, china, pct15], 10);
        for i in 0..3 {
            assert_eq!(s.matrix[i * 3 + i], 0);
            for j in 0..3 {
                assert_ne!(s.matrix[i * 3 + j], UNSET, "one document: every pair connects");
                assert_eq!(s.matrix[i * 3 + j], s.matrix[j * 3 + i]);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_traversals() {
        let (c, g) = setup();
        let mut scratch = TraversalScratch::new();
        let nodes: Vec<NodeId> = c.documents().flat_map(|d| d.node_ids()).collect();
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(
                    shortest_distance_with(&g, &mut scratch, a, b, 12),
                    shortest_distance_with(&g, &mut TraversalScratch::new(), a, b, 12),
                    "scratch reuse changed the distance of {a:?} -> {b:?}"
                );
            }
        }
        assert!(scratch.label_probes > 0, "reused scratch accounts its label probes");
    }

    #[test]
    fn oracle_matches_bfs_reference_at_every_depth() {
        let (c, g) = setup();
        let mut scratch = TraversalScratch::new();
        let nodes: Vec<NodeId> = c.documents().flat_map(|d| d.node_ids()).collect();
        for depth in DEPTHS.into_iter().chain([MAX_DEPTH, usize::MAX]) {
            for &a in &nodes {
                let reference = reference_bfs_distances(&g, a, depth.min(MAX_DEPTH));
                for &b in &nodes {
                    let want = reference.get(&b).copied();
                    assert_eq!(
                        shortest_distance_with(&g, &mut scratch, a, b, depth),
                        want,
                        "oracle disagrees with BFS for {a:?} -> {b:?} at depth {depth}"
                    );
                    let path = shortest_path_with(&g, &mut scratch, a, b, depth);
                    assert_eq!(path.map(|p| p.len()), want, "path length must be shortest");
                    assert_eq!(
                        is_connected_with(&g, &mut scratch, &[a, b], depth),
                        want.is_some(),
                        "is_connected diverged for {a:?}, {b:?} at depth {depth}"
                    );
                }
            }
        }
    }

    /// A parent walk could go on past `MAX_DEPTH`, but a bound past it reads
    /// as `MAX_DEPTH` on both sides of the dispatch.
    #[test]
    fn depth_bounds_past_max_depth_are_clamped() {
        let deep = format!("{}{}", "<n>".repeat(MAX_DEPTH + 2), "</n>".repeat(MAX_DEPTH + 2));
        let c = parse_collection(vec![("deep.xml", deep.as_str())]).unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        let s = &mut TraversalScratch::new();
        let root = NodeId::new(DocId(0), 0);
        let at = |hops: usize| NodeId::new(DocId(0), hops as u32);
        assert_eq!(shortest_distance_with(&g, s, root, at(MAX_DEPTH), usize::MAX), Some(MAX_DEPTH));
        assert_eq!(
            shortest_path_with(&g, s, root, at(MAX_DEPTH), 100).map(|p| p.len()),
            Some(MAX_DEPTH)
        );
        assert_eq!(shortest_distance_with(&g, s, root, at(MAX_DEPTH + 1), usize::MAX), None);
        assert!(!is_connected_with(&g, s, &[root, at(MAX_DEPTH + 1)], 100));
        let mut source = pin(&g, s, root).unwrap();
        assert_eq!(source.distance_to(at(MAX_DEPTH + 1), MAX_DEPTH + 1), None);
    }

    /// In a tree document a path climbs to the lowest common ancestor and
    /// descends from it, one probe a parent step, and a pinned source
    /// scatters nothing.
    #[test]
    fn a_tree_path_is_the_climb_then_the_descent() {
        let c = parse_collection(vec![("t.xml", "<a><b><c/></b><d><e/></d></a>")]).unwrap();
        let g = DataGraph::build(&c, &GraphConfig::default());
        let at = |ordinal| NodeId::new(DocId(0), ordinal);
        let s = &mut TraversalScratch::new();
        let path = shortest_path_with(&g, s, at(2), at(4), 12).unwrap();
        let nodes: Vec<NodeId> = path.iter().map(|hop| hop.node).collect();
        assert_eq!(nodes, [at(1), at(0), at(3), at(4)]);
        assert!(path.iter().all(|hop| hop.kind == EdgeKind::ParentChild));
        assert_eq!(s.label_probes, 4, "one probe a parent step");
        assert_eq!(shortest_path_with(&g, s, at(2), at(4), 3), None);

        let mut scratch = TraversalScratch::new();
        let mut source = pin(&g, &mut scratch, at(2)).expect("a tree node pins");
        assert_eq!(source.distance_to(at(4), 12), Some(4));
        assert_eq!(source.distance_to(at(1), 12), Some(1));
        drop(source);
        assert!(scratch.pinned.is_empty(), "a tree source scatters nothing");
        assert_eq!(scratch.label_probes, 5);
    }

    #[test]
    fn a_pinned_source_answers_like_the_pairwise_query_and_like_bfs() {
        let (c, g) = setup();
        let (mut pinned_scratch, mut scratch) = (TraversalScratch::new(), TraversalScratch::new());
        let mut nodes: Vec<NodeId> = c.documents().flat_map(|d| d.node_ids()).collect();
        // A node of a document the graph was not built over, on either side.
        let outside = NodeId::new(DocId(c.len() as u32), 0);
        assert!(pin(&g, &mut pinned_scratch, outside).is_none());
        nodes.push(outside);
        for &a in nodes.iter().filter(|&&a| a != outside) {
            let mut source = pin(&g, &mut pinned_scratch, a).expect("a node of the graph pins");
            // Three documents, two components (the island), so every outcome
            // class is met.
            for depth in DEPTHS {
                let reference = reference_bfs_distances(&g, a, depth.min(MAX_DEPTH));
                for &b in &nodes {
                    let pairwise = shortest_distance_with(&g, &mut scratch, a, b, depth);
                    assert_eq!(
                        source.distance_to(b, depth),
                        pairwise,
                        "pinned {a:?} -> {b:?} at depth {depth}"
                    );
                    assert_eq!(pairwise, reference.get(&b).copied());
                }
            }
        }
        pinned_scratch.verify().expect("every source unpinned itself");
    }

    #[test]
    fn pinned_probes_count_the_source_once_and_every_target_in_full() {
        let (c, g) = setup();
        let label_len = |n: NodeId| {
            let (lo, hi) = g.label_range(g.dense(n).unwrap());
            (hi - lo) as u64
        };
        let us_name = find(&c, "/country/name", "United States");
        let sea_name = find(&c, "/sea/name", "Pacific Ocean");
        let island = find(&c, "/island/name", "Lonely Island");
        let mut scratch = TraversalScratch::new();
        let mut source = pin(&g, &mut scratch, us_name).unwrap();
        assert_eq!(source.distance_to(sea_name, 12), Some(4));
        // The node itself and another component are answered before any scan.
        assert_eq!(source.distance_to(us_name, 12), Some(0));
        assert_eq!(source.distance_to(island, 12), None);
        drop(source);
        assert_eq!(scratch.label_probes, label_len(us_name) + label_len(sea_name));
    }

    #[test]
    fn a_pinned_source_unpins_however_its_scope_is_left() {
        let (c, g) = setup();
        let us_name = find(&c, "/country/name", "United States");
        let sea_name = find(&c, "/sea/name", "Pacific Ocean");
        let mut scratch = TraversalScratch::new();
        scratch.verify().expect("a scratch that never pinned is clean");

        fn leave_early(g: &DataGraph, scratch: &mut TraversalScratch, a: NodeId) -> Option<usize> {
            let mut source = pin(g, scratch, a)?;
            source.distance_to(NodeId::new(DocId(99), 0), 12)?;
            unreachable!("the target lies outside the graph")
        }
        assert_eq!(leave_early(&g, &mut scratch, us_name), None);
        scratch.verify().expect("`?` out of a pinned scope unpins");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut source = pin(&g, &mut scratch, us_name).unwrap();
            source.distance_to(sea_name, 12);
            panic!("mid-batch");
        }));
        assert!(unwound.is_err());
        scratch.verify().expect("a panic unwinding through a pinned scope unpins");

        // The scratch the panic went through answers like a fresh one.
        let mut source = pin(&g, &mut scratch, sea_name).unwrap();
        assert_eq!(source.distance_to(us_name, 12), Some(4));
    }

    /// Reference BFS over `HashMap`s and [`DataGraph::neighbors`], sharing no
    /// code with the oracle it judges: the distance of every node within
    /// `max_depth` hops of `source`.
    fn reference_bfs_distances(
        graph: &DataGraph,
        source: NodeId,
        max_depth: usize,
    ) -> std::collections::HashMap<NodeId, usize> {
        use std::collections::{HashMap, VecDeque};
        let mut distances = HashMap::new();
        let mut queue = VecDeque::new();
        distances.insert(source, 0usize);
        queue.push_back(source);
        while let Some(current) = queue.pop_front() {
            let depth = distances[&current];
            if depth >= max_depth {
                continue;
            }
            for (next, _) in graph.neighbors(current) {
                if let std::collections::hash_map::Entry::Vacant(e) = distances.entry(next) {
                    e.insert(depth + 1);
                    queue.push_back(next);
                }
            }
        }
        distances
    }
}
