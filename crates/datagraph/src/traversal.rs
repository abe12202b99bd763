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
//! Distances are answered by the [`crate::ConnectivityIndex`] built at merge
//! time: a bounded query is a label intersection (counted in
//! [`TraversalScratch::label_probes`]), not a graph walk.  Hub labels are
//! exact up to the index radius; the rare query whose `max_depth` exceeds it
//! falls back to plain BFS (counted in [`TraversalScratch::bfs_visits`]).
//! The BFS implementation also remains available as
//! [`bfs_shortest_distance_with`] / [`bfs_shortest_path_with`] /
//! [`bfs_is_connected_with`] — the reference the oracle is property-tested
//! against.
//!
//! A caller with one source and a batch of targets [`pin`]s the source: its
//! label is scattered once into the scratch and every
//! [`PinnedSource::distance_to`] then scans the target's label only, with the
//! answers of [`shortest_distance_with`].  Probes are counted where entries
//! are read: `|L(source)|` for the pin, `|L(target)|` per query.
//!
//! Every function takes a caller-owned [`TraversalScratch`] (a one-off caller
//! passes `&mut TraversalScratch::new()`).  The scratch holds
//! **epoch-stamped** visited/distance arrays indexed by the graph's dense node
//! indices, so even the BFS fallback touches no hash map and resets in O(1)
//! between runs.

use seda_xmlstore::{DocId, NodeId};

use crate::connectivity::{ConnectivityIndex, LabelScheme, NO_ENTRY, SATURATED};
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

/// Reusable traversal state: epoch-stamped visited/distance/predecessor
/// arrays over the graph's dense node indices (for the BFS fallback and the
/// reference implementations), the work queue, and the small spanning-tree
/// buffers of the compactness computation.
///
/// One scratch serves any number of traversals over graphs of any size (the
/// arrays grow on demand); reuse it across queries to keep the read path
/// allocation-free.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// Current epoch; a slot is visited iff `stamp[i] == epoch`.
    pub(crate) epoch: u32,
    pub(crate) stamp: Vec<u32>,
    pub(crate) dist: Vec<u32>,
    pub(crate) pred: Vec<(u32, EdgeKind)>,
    queue: Vec<u32>,
    /// Pairwise-distance matrix of the compactness computation (row-major,
    /// `UNSET` for unreachable), reused across tuples.
    matrix: Vec<u32>,
    in_tree: Vec<bool>,
    best: Vec<u32>,
    /// The scattered label of the current [`PinnedSource`], one `u16` per
    /// label key (2 bytes a graph node), all `NO_ENTRY` whenever no source is
    /// pinned — a leftover entry would shorten later pinned distances, so
    /// [`TraversalScratch::verify`] checks it; sized on the first [`pin`]
    /// over a graph.
    pub(crate) pinned: Vec<u16>,
    /// Total label entries scanned by connectivity-oracle intersections
    /// through this scratch (monotonic; the query profile reports deltas).
    pub label_probes: u64,
    /// Total nodes visited by BFS runs through this scratch — the reference
    /// implementations plus the deep-query fallback (monotonic).
    pub bfs_visits: u64,
    /// Optional work ceiling on `label_probes + bfs_visits`: once the sum
    /// reaches the ceiling, BFS runs stop expanding (clipping is counted in
    /// [`TraversalScratch::probe_clips`]).  Unreached nodes then read as
    /// disconnected — a *degraded* answer, so only resource-governed callers
    /// should arm this, and they must report the breach.  Label-only oracle
    /// answers stay exact; the ceiling merely bounds fallback walks.
    pub probe_ceiling: Option<u64>,
    /// BFS runs clipped by [`TraversalScratch::probe_ceiling`] (monotonic).
    pub probe_clips: u64,
}

impl TraversalScratch {
    /// Creates an empty scratch; arrays are sized on first use.
    pub fn new() -> Self {
        TraversalScratch::default()
    }

    /// Starts a new traversal epoch, growing the arrays to `nodes` slots.
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.dist.resize(nodes, 0);
            self.pred.resize(nodes, (0, EdgeKind::ParentChild));
        }
        // Epoch 0 means "never stamped"; on wrap-around every stamp is
        // cleared so stale marks cannot alias the new epoch.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn visit(&mut self, dense: u32, dist: u32) {
        self.stamp[dense as usize] = self.epoch;
        self.dist[dense as usize] = dist;
        self.queue.push(dense);
        self.bfs_visits += 1;
    }

    #[inline]
    fn seen(&self, dense: u32) -> bool {
        self.stamp[dense as usize] == self.epoch
    }

    /// Distance of a dense node in the last BFS, or `None` if unreached.
    fn distance(&self, dense: u32) -> Option<u32> {
        self.seen(dense).then(|| self.dist[dense as usize])
    }
}

/// Breadth-first search from `source` over tree and non-tree edges, bounded
/// by `max_depth` hops.  On return the scratch holds the distances and
/// predecessors of every reached node (valid until the next traversal).
fn bfs_with(graph: &DataGraph, scratch: &mut TraversalScratch, source: u32, max_depth: usize) {
    scratch.begin(graph.node_count());
    scratch.visit(source, 0);
    let mut head = 0;
    while head < scratch.queue.len() {
        if let Some(ceiling) = scratch.probe_ceiling {
            if scratch.label_probes + scratch.bfs_visits >= ceiling {
                // Budget exhausted: stop expanding.  Nodes not yet reached
                // read as disconnected, which governed callers surface as a
                // degraded (prefix) answer rather than unbounded work.
                scratch.probe_clips += 1;
                return;
            }
        }
        let current = scratch.queue[head];
        head += 1;
        let depth = scratch.dist[current as usize];
        if depth as usize >= max_depth {
            continue;
        }
        for &(next, kind) in graph.neighbors_dense(current) {
            if !scratch.seen(next) {
                scratch.visit(next, depth + 1);
                scratch.pred[next as usize] = (current, kind);
            }
        }
    }
}

/// Rebuilds the hop sequence `a -> b` from the predecessor array of the last
/// BFS (which must have run from `a` and reached `b`).
fn path_from_pred(graph: &DataGraph, scratch: &TraversalScratch, da: u32, db: u32) -> Vec<Hop> {
    let mut path = Vec::new();
    let mut current = db;
    while current != da {
        let (prev, kind) = scratch.pred[current as usize];
        path.push(Hop { node: graph.node_id(current), kind });
        current = prev;
    }
    path.reverse();
    path
}

/// Outcome of consulting the connectivity oracle for a bounded distance.
enum OracleDistance {
    /// The labels answer the query exactly: `Some(d)` with `d <= max_depth`,
    /// or `None` when no path of at most `max_depth` hops exists.
    Known(Option<u32>),
    /// The query's `max_depth` exceeds what the labels certify (deeper than
    /// the hub radius, or a saturated tree label); only BFS can answer.
    NeedsBfs,
}

/// Bounded shortest-path distance via label intersection.
///
/// Correctness relies on three facts: documents in different components are
/// never connected; tree labels are exact at any depth; hub labels are exact
/// for all true distances `<= radius`, and only ever over-estimate beyond it.
fn oracle_distance(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    a: NodeId,
    b: NodeId,
    da: u32,
    db: u32,
    max_depth: usize,
) -> OracleDistance {
    if da == db {
        return OracleDistance::Known(Some(0));
    }
    if !graph.same_component(a, b) {
        return OracleDistance::Known(None);
    }
    let oracle = graph.connectivity();
    if !oracle.covers(graph.node_count()) {
        return OracleDistance::NeedsBfs;
    }
    let d = oracle.label_distance(da, db, &mut scratch.label_probes);
    classify(oracle, a.doc, d, max_depth)
}

/// What a 2-hop label distance `d` between two nodes of `doc`'s component
/// proves about their true distance under `max_depth` — the one reading of
/// label answers, shared by the pairwise merge and the pinned scan.
fn classify(oracle: &ConnectivityIndex, doc: DocId, d: u32, max_depth: usize) -> OracleDistance {
    match oracle.scheme(doc) {
        LabelScheme::Tree => {
            // Tree components are single cross-edge-free documents, so both
            // endpoints share the document and the labels are exact — unless
            // a distance saturated `u16`, which only BFS can resolve.
            if d >= SATURATED {
                OracleDistance::NeedsBfs
            } else if d as usize <= max_depth {
                OracleDistance::Known(Some(d))
            } else {
                OracleDistance::Known(None)
            }
        }
        LabelScheme::Hub => {
            let radius = oracle.radius();
            if d as usize <= max_depth.min(radius) {
                // A label answer within the radius is the true distance.
                OracleDistance::Known(Some(d))
            } else if max_depth <= radius {
                // The labels cover every distance up to `max_depth`; finding
                // none there proves the true distance exceeds the bound.
                OracleDistance::Known(None)
            } else {
                OracleDistance::NeedsBfs
            }
        }
    }
}

/// Shortest-path distance between two nodes (number of edges), bounded by
/// `max_depth`; `None` when no path exists within the bound.
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
    match oracle_distance(graph, scratch, a, b, da, db, max_depth) {
        OracleDistance::Known(d) => d.map(|d| d as usize),
        OracleDistance::NeedsBfs => {
            bfs_with(graph, scratch, da, max_depth);
            scratch.distance(db).map(|d| d as usize)
        }
    }
}

/// A source node whose label is scattered in the scratch, so that each
/// [`PinnedSource::distance_to`] reads the target's label alone — the
/// one-to-many form of [`shortest_distance_with`] (see
/// [`crate::connectivity`]).  Made by [`pin`]; holds the scratch for as long
/// as it lives and takes the scattered entries back out when it drops, so a
/// `break`, a `?` or an unwinding panic in the caller's loop leaves the
/// scratch as clean as a normal exit does.
pub struct PinnedSource<'a> {
    graph: &'a DataGraph,
    scratch: &'a mut TraversalScratch,
    source: NodeId,
    dense: u32,
}

/// Pins `source` for a batch of [`PinnedSource::distance_to`] queries, at the
/// cost of one pass over its label (counted in
/// [`TraversalScratch::label_probes`]) and one more when the guard drops.
/// `None` when `source` lies outside the graph or the graph's labels do not
/// cover it; the caller then asks [`shortest_distance_with`] pair by pair.
///
/// A pinned query reads `|L(target)|` entries where the merge reads between
/// `min(|L(a)|, |L(b)|)` and `|L(a)| + |L(b)|`, and has no data-dependent
/// branch; against that stand the two passes over `L(source)`.  It pays when
/// one source meets many targets over long labels — the top-k join's pair arm
/// and the cross-root `RESULTS` join on hub-labelled components — and not on a
/// few targets with short tree labels, which is why tuples of three and more
/// nodes (a handful of partners per group, measured slower) stay on the merge.
pub fn pin<'a>(
    graph: &'a DataGraph,
    scratch: &'a mut TraversalScratch,
    source: NodeId,
) -> Option<PinnedSource<'a>> {
    let dense = graph.dense(source)?;
    let nodes = graph.node_count();
    let oracle = graph.connectivity();
    if !oracle.covers(nodes) {
        return None;
    }
    // Label keys are dense node indices (tree) or hub ranks (hub): both
    // below the node count.
    if scratch.pinned.len() < nodes {
        scratch.pinned.resize(nodes, NO_ENTRY);
    }
    if !oracle.scatter(dense, &mut scratch.pinned, &mut scratch.label_probes) {
        return None;
    }
    Some(PinnedSource { graph, scratch, source, dense })
}

impl PinnedSource<'_> {
    /// Exactly [`shortest_distance_with`]`(source, target, max_depth)`: the
    /// same component, scheme, saturation and radius rules, and the same BFS
    /// when the labels cannot certify the bound.
    pub fn distance_to(&mut self, target: NodeId, max_depth: usize) -> Option<usize> {
        if target == self.source {
            return Some(0);
        }
        let target_dense = self.graph.dense(target)?;
        if !self.graph.same_component(self.source, target) {
            return None;
        }
        let oracle = self.graph.connectivity();
        let d = oracle.pinned_distance(
            &self.scratch.pinned,
            target_dense,
            &mut self.scratch.label_probes,
        );
        match classify(oracle, self.source.doc, d, max_depth) {
            OracleDistance::Known(d) => d.map(|d| d as usize),
            OracleDistance::NeedsBfs => {
                bfs_with(self.graph, self.scratch, self.dense, max_depth);
                self.scratch.distance(target_dense).map(|d| d as usize)
            }
        }
    }
}

impl Drop for PinnedSource<'_> {
    fn drop(&mut self) {
        // Writes the slots `scatter` wrote, so it cannot go out of bounds.
        self.graph.connectivity().unscatter(self.dense, &mut self.scratch.pinned);
    }
}

/// [`shortest_distance_with`] answered by plain breadth-first search — the
/// reference implementation the oracle is property-tested against.
pub fn bfs_shortest_distance_with(
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
    bfs_with(graph, scratch, da, max_depth);
    scratch.distance(db).map(|d| d as usize)
}

/// Shortest path between two nodes as the sequence of intermediate hops
/// (excluding `a`, including `b`), bounded by `max_depth`.  The returned hop
/// vector is freshly allocated (it escapes the scratch's lifetime).
///
/// The path is materialised by oracle-guided descent: from each node, step to
/// the first CSR neighbour whose label distance to the target is one less.
/// The result has exactly the shortest-path length; among equally short
/// paths the neighbour order (parent, children, cross edges) breaks ties
/// deterministically.
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
    let total = match oracle_distance(graph, scratch, a, b, da, db, max_depth) {
        OracleDistance::Known(None) => return None,
        OracleDistance::Known(Some(d)) => d,
        OracleDistance::NeedsBfs => {
            bfs_with(graph, scratch, da, max_depth);
            scratch.distance(db)?;
            return Some(path_from_pred(graph, scratch, da, db));
        }
    };
    let oracle = graph.connectivity();
    let mut path = Vec::with_capacity(total as usize);
    let mut current = da;
    let mut remaining = total;
    'descend: while remaining > 0 {
        for &(next, kind) in graph.neighbors_dense(current) {
            let advances = if remaining == 1 {
                next == db
            } else {
                // `remaining - 1` is within the certified range, so the label
                // distance equals the true distance exactly when it matches.
                oracle.label_distance(next, db, &mut scratch.label_probes) == remaining - 1
            };
            if advances {
                path.push(Hop { node: graph.node_id(next), kind });
                current = next;
                remaining -= 1;
                continue 'descend;
            }
        }
        // Unreachable with exact labels; keep a safe way out regardless.
        bfs_with(graph, scratch, da, max_depth);
        scratch.distance(db)?;
        return Some(path_from_pred(graph, scratch, da, db));
    }
    Some(path)
}

/// [`shortest_path_with`] materialised from a breadth-first search — the
/// reference implementation the oracle-guided descent is property-tested
/// against.
pub fn bfs_shortest_path_with(
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
    bfs_with(graph, scratch, da, max_depth);
    scratch.distance(db)?;
    Some(path_from_pred(graph, scratch, da, db))
}

/// Fills `scratch.matrix` (row-major, `UNSET` = unreachable) with the
/// pairwise bounded shortest-path distances of `nodes`, one oracle probe per
/// pair (plus a BFS per row when the bound exceeds the label radius).
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
        let mut bfs_ran = false;
        for j in (i + 1)..n {
            let Some(dj) = graph.dense(nodes[j]) else { continue };
            let d = match oracle_distance(graph, scratch, nodes[i], nodes[j], di, dj, max_depth) {
                OracleDistance::Known(d) => d,
                OracleDistance::NeedsBfs => {
                    if !bfs_ran {
                        bfs_with(graph, scratch, di, max_depth);
                        bfs_ran = true;
                    }
                    scratch.distance(dj)
                }
            };
            if let Some(d) = d {
                scratch.matrix[i * n + j] = d;
                scratch.matrix[j * n + i] = d;
            }
        }
    }
}

/// True when the tuple of nodes is connected in the data graph (every node is
/// reachable from the first within `max_depth` hops).  This is the witness
/// requirement of Definition 4.
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
    let mut bfs_ran = false;
    for &n in &nodes[1..] {
        let Some(dn) = graph.dense(n) else { return false };
        match oracle_distance(graph, scratch, nodes[0], n, first, dn, max_depth) {
            OracleDistance::Known(Some(_)) => {}
            OracleDistance::Known(None) => return false,
            OracleDistance::NeedsBfs => {
                // One BFS from the first node answers every fallback pair of
                // this tuple (oracle probes in between never disturb it).
                if !bfs_ran {
                    bfs_with(graph, scratch, first, max_depth);
                    bfs_ran = true;
                }
                if !scratch.seen(dn) {
                    return false;
                }
            }
        }
    }
    true
}

/// [`is_connected_with`] answered by plain breadth-first search — the
/// reference implementation the oracle is property-tested against.
pub fn bfs_is_connected_with(
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    nodes: &[NodeId],
    max_depth: usize,
) -> bool {
    if nodes.len() <= 1 {
        return true;
    }
    let Some(first) = graph.dense(nodes[0]) else { return false };
    bfs_with(graph, scratch, first, max_depth);
    nodes.iter().all(|&n| graph.dense(n).map(|d| scratch.seen(d)).unwrap_or(false))
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
    use seda_xmlstore::{parse_collection, Collection};

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
        // Depths straddle the hub radius to exercise both the label path and
        // the BFS fallback.
        for depth in [0usize, 1, 2, 5, 12, g.connectivity().radius() + 4] {
            for &a in &nodes {
                for &b in &nodes {
                    let reference = bfs_shortest_distance_with(&g, &mut scratch, a, b, depth);
                    assert_eq!(
                        shortest_distance_with(&g, &mut scratch, a, b, depth),
                        reference,
                        "oracle disagrees with BFS for {a:?} -> {b:?} at depth {depth}"
                    );
                    let path = shortest_path_with(&g, &mut scratch, a, b, depth);
                    assert_eq!(path.map(|p| p.len()), reference, "path length must be shortest");
                    assert_eq!(
                        is_connected_with(&g, &mut scratch, &[a, b], depth),
                        bfs_is_connected_with(&g, &mut scratch, &[a, b], depth),
                        "is_connected diverged for {a:?}, {b:?} at depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_ceiling_clips_bfs_and_disarms_cleanly() {
        let (c, g) = setup();
        let us_name = find(&c, "/country/name", "United States");
        let sea_name = find(&c, "/sea/name", "Pacific Ocean");
        let mut scratch = TraversalScratch::new();

        // An exhausted ceiling makes BFS answers read as disconnected and
        // counts the clip.
        scratch.probe_ceiling = Some(scratch.label_probes + scratch.bfs_visits + 1);
        assert_eq!(bfs_shortest_distance_with(&g, &mut scratch, us_name, sea_name, 10), None);
        assert!(scratch.probe_clips > 0, "clipped BFS runs must be counted");

        // Disarming restores exact answers through the same scratch.
        scratch.probe_ceiling = None;
        assert_eq!(bfs_shortest_distance_with(&g, &mut scratch, us_name, sea_name, 10), Some(4));
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
            // Depths on both sides of the radius; three documents, two
            // components (the island), so every outcome class is met.
            for depth in [0usize, 1, 2, 5, 12, g.connectivity().radius() + 4] {
                for &b in &nodes {
                    let pairwise = shortest_distance_with(&g, &mut scratch, a, b, depth);
                    assert_eq!(
                        source.distance_to(b, depth),
                        pairwise,
                        "pinned {a:?} -> {b:?} at depth {depth}"
                    );
                    assert_eq!(pairwise, bfs_shortest_distance_with(&g, &mut scratch, a, b, depth));
                }
            }
        }
        pinned_scratch.verify().expect("every source unpinned itself");
    }

    #[test]
    fn pinned_probes_count_the_source_once_and_every_target_in_full() {
        let (c, g) = setup();
        let label_len = |n: NodeId| {
            let d = g.dense(n).unwrap() as usize;
            let offsets = &g.connectivity().offsets;
            u64::from(offsets[d + 1] - offsets[d])
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

    /// Reference BFS over `HashMap`s (the pre-CSR implementation), used to pin
    /// the CSR + epoch-stamped implementation.
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

    #[test]
    fn csr_bfs_matches_hashmap_reference() {
        let (c, g) = setup();
        let mut scratch = TraversalScratch::new();
        for doc in c.documents() {
            for source in doc.node_ids() {
                for depth in [1usize, 3, 12] {
                    let reference = reference_bfs_distances(&g, source, depth);
                    for target in c.documents().flat_map(|d| d.node_ids()) {
                        assert_eq!(
                            shortest_distance_with(&g, &mut scratch, source, target, depth),
                            reference.get(&target).copied(),
                            "oracle disagrees with reference for {source:?} -> {target:?} at depth {depth}"
                        );
                    }
                }
            }
        }
    }
}
