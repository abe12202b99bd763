//! The connectivity oracle: precomputed distance labels that replace
//! per-query BFS on the read path.
//!
//! Connection checks are the inner loop of every top-k query (Definition 4
//! demands a connected witness subgraph, and the compactness score needs
//! pairwise distances), and breadth-first search made them cost tens of
//! millions of node visits per query on cross-linked corpora.  The oracle
//! moves that work to build time: every node carries a small sorted list of
//! `(hub, distance)` entries — a *2-hop cover* — and a bounded shortest-path
//! query becomes a merge-scan intersection of two such lists.
//!
//! Two labeling schemes are chosen **per document component**:
//!
//! * **Tree labels** (centroid decomposition) for documents untouched by any
//!   cross edge.  Such a document is a pure tree, so recursively splitting it
//!   at centroids yields `O(log n)` labels per node that answer *exact*
//!   distances at any depth.  These are computed per document in
//!   [`crate::DataGraph::build_shard`] and adopted at merge time, rebased to
//!   the graph's dense node indices.
//! * **Hub labels** (pruned landmark labeling, bounded at
//!   [`LABEL_RADIUS`]) for components with cross edges.  Hubs are visited in
//!   descending-degree order; each runs a pruned BFS of radius
//!   [`LABEL_RADIUS`], so labels stay small and queries are exact for every
//!   distance `<= LABEL_RADIUS`.  Queries with a deeper `max_depth` fall back
//!   to BFS — the default search depth (12) is below the radius, so the hot
//!   path never does.
//!
//! Both schemes store their labels in one flat CSR arena (`offsets`, `hubs`,
//! `dists`) alongside the adjacency built in [`crate::DataGraph::merge`], and
//! both are queried by the same intersection loop.  The number of label
//! entries scanned is counted as `label_probes` — the successor of the old
//! `bfs_visits` counter in query profiles.
//!
//! # One source, many targets
//!
//! The merge-scan walks both labels for every pair, although a join asks one
//! source about a whole batch of targets.  The one-to-many form — the way
//! pruned landmark labels are meant to be queried (Akiba, Iwata, Yoshida,
//! SIGMOD 2013), and what the index's own builder does to prune — scatters
//! the source's label once into an array indexed by label key (`scatter`,
//! `|L(a)|` probes) and then answers each target by one branch-free pass over
//! the target's label alone (`pinned_distance`, `|L(b)|` probes).  The scan
//! reads all of `L(b)` where the merge stops as soon as either label runs
//! out, and the source's label is passed over twice more (scatter,
//! un-scatter); what it saves is every step through `L(a)` per target and
//! every data-dependent branch.  Over Mondial's hub labels (≈ 33 entries a
//! node, 23 targets a source) the pair-scoring join runs 2.4–2.7× faster for
//! it; over short tree labels and a handful of targets it earns nothing back
//! — see [`crate::traversal::pin`] for who uses it.

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId};

use crate::graph::{DataGraph, Edge, GraphShard};

/// Exactness radius of the hub labels: distances up to this bound are
/// answered exactly from the labels; deeper queries fall back to BFS.  Kept
/// above the default search depth (12) so the top-k hot path never falls
/// back.
pub const LABEL_RADIUS: u16 = 16;

/// Label distances at or above this value mean "not covered by the labels"
/// (either no common hub within the radius, or a saturated tree distance in a
/// document deeper than `u16` can express).
pub(crate) const SATURATED: u32 = u16::MAX as u32;

/// "The pinned source has no entry under this key" in the scattered array of
/// the one-to-many query.  Equal to [`SATURATED`] on purpose: a sum through a
/// missing key lands on the "not covered" side by itself, without a branch.
pub(crate) const NO_ENTRY: u16 = u16::MAX;

const UNSET: u32 = u32::MAX;

/// Labeling scheme of a document (shared by every document of its
/// component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelScheme {
    /// Centroid-decomposition tree labels: exact at any distance.  Used for
    /// documents with no cross edges (always singleton components).
    Tree,
    /// Radius-bounded pruned landmark labels: exact up to
    /// [`LABEL_RADIUS`].  Used for components touched by cross edges.
    Hub,
}

/// The precomputed distance-label substrate of a [`DataGraph`].
///
/// Built once in [`DataGraph::merge`] from the per-document shard labels plus
/// a merge-time landmark pass over cross-linked components; immutable
/// afterwards.  All label state lives in three flat arrays, CSR-style: node
/// `i`'s entries are `hubs[offsets[i]..offsets[i+1]]` (sorted ascending) with
/// parallel distances in `dists`.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectivityIndex {
    /// Exactness radius of the hub labels ([`LABEL_RADIUS`] at build time).
    pub(crate) radius: u16,
    /// Labeling scheme per document.
    pub(crate) schemes: Vec<LabelScheme>,
    /// Per-node label offsets, length `node_count + 1`.
    pub(crate) offsets: Vec<u32>,
    /// Label keys, sorted ascending per node: centroid dense indices for
    /// tree-labeled nodes, hub ranks for hub-labeled nodes.  The two key
    /// spaces never meet — nodes of different schemes are always in
    /// different components, which the query rejects before intersecting.
    pub(crate) hubs: Vec<u32>,
    /// Distance to each label key (parallel to `hubs`).
    pub(crate) dists: Vec<u16>,
}

impl ConnectivityIndex {
    /// Exactness radius of the hub labels: queries bounded by `max_depth <=
    /// radius()` are answered from the labels alone.
    pub fn radius(&self) -> usize {
        self.radius as usize
    }

    /// Labeling scheme of a document ([`LabelScheme::Tree`] for documents
    /// outside the collection, whose empty labels force the BFS fallback).
    pub fn scheme(&self, doc: DocId) -> LabelScheme {
        self.schemes.get(doc.index()).copied().unwrap_or(LabelScheme::Tree)
    }

    /// Total number of `(hub, distance)` label entries.
    pub fn label_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Bytes occupied by the label arenas (the oracle's memory footprint).
    pub fn label_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.hubs.len() * std::mem::size_of::<u32>()
            + self.dists.len() * std::mem::size_of::<u16>()
            + self.schemes.len() * std::mem::size_of::<LabelScheme>()
    }

    /// True when the index was built over a graph of `node_count` nodes (the
    /// traversal layer's guard before trusting the labels).
    pub fn covers(&self, node_count: usize) -> bool {
        self.offsets.len() == node_count + 1
    }

    /// Label entries of one dense node.
    fn entries(&self, dense: u32) -> (&[u32], &[u16]) {
        let lo = self.offsets[dense as usize] as usize;
        let hi = self.offsets[dense as usize + 1] as usize;
        (&self.hubs[lo..hi], &self.dists[lo..hi])
    }

    /// Minimum `dist(a, hub) + dist(hub, b)` over the common label keys of
    /// two dense nodes — the 2-hop distance query.  Returns `>= SATURATED`
    /// when the labels do not cover the pair.  Every entry scanned counts one
    /// probe.
    pub(crate) fn label_distance(&self, a: u32, b: u32, probes: &mut u64) -> u32 {
        let (a_hubs, a_dists) = self.entries(a);
        let (b_hubs, b_dists) = self.entries(b);
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = UNSET;
        while i < a_hubs.len() && j < b_hubs.len() {
            *probes += 1;
            let (ha, hb) = (a_hubs[i], b_hubs[j]);
            if ha == hb {
                let d = a_dists[i] as u32 + b_dists[j] as u32;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            } else if ha < hb {
                i += 1;
            } else {
                j += 1;
            }
        }
        best
    }

    /// First half of the one-to-many query: scatters `a`'s label into
    /// `pinned` (`pinned[key] = dist(a, key)`, [`NO_ENTRY`] elsewhere), so
    /// that [`ConnectivityIndex::pinned_distance`] answers any number of
    /// targets by reading only the target's label.  Counts `|L(a)|` probes.
    /// Returns false — writing nothing — when a key of `a` lies outside
    /// `pinned`; the caller then keeps to [`ConnectivityIndex::label_distance`].
    pub(crate) fn scatter(&self, a: u32, pinned: &mut [u16], probes: &mut u64) -> bool {
        let (hubs, dists) = self.entries(a);
        // Keys ascend, so the last one bounds them all.
        if hubs.last().is_some_and(|&key| key as usize >= pinned.len()) {
            return false;
        }
        for (&key, &d) in hubs.iter().zip(dists) {
            debug_assert_eq!(pinned[key as usize], NO_ENTRY, "a pinned label was left behind");
            pinned[key as usize] = d;
        }
        *probes += hubs.len() as u64;
        true
    }

    /// Undoes [`ConnectivityIndex::scatter`] for the same node, leaving
    /// `pinned` all-[`NO_ENTRY`] again in `O(|L(a)|)`.
    pub(crate) fn unscatter(&self, a: u32, pinned: &mut [u16]) {
        for &key in self.entries(a).0 {
            pinned[key as usize] = NO_ENTRY;
        }
    }

    /// [`ConnectivityIndex::label_distance`] from the node whose label is
    /// scattered in `pinned` to `b`, by one pass over `b`'s entries: the same
    /// value whenever the labels cover the pair, and `>= SATURATED` exactly
    /// when `label_distance` is (a key the source lacks reads [`NO_ENTRY`],
    /// which alone reaches [`SATURATED`]).  Counts `|L(b)|` probes.
    pub(crate) fn pinned_distance(&self, pinned: &[u16], b: u32, probes: &mut u64) -> u32 {
        let (hubs, dists) = self.entries(b);
        let mut best = UNSET;
        for (&key, &d) in hubs.iter().zip(dists) {
            let to_key = pinned.get(key as usize).copied().unwrap_or(NO_ENTRY);
            best = best.min(to_key as u32 + d as u32);
        }
        *probes += hubs.len() as u64;
        best
    }

    /// Builds the index at merge time: adopts shard tree labels for
    /// cross-edge-free documents (recomputing them from the adjacency when a
    /// shard is missing) and runs the pruned landmark pass over the
    /// cross-linked components.  Deterministic: depends only on the frozen
    /// adjacency and the collection, never on shard order.
    pub(crate) fn assemble(
        collection: &Collection,
        graph: &DataGraph,
        shards: &[GraphShard],
        edges: &[Edge],
    ) -> ConnectivityIndex {
        let docs = collection.len();
        let node_count = graph.node_count();
        let mut has_cross = vec![false; docs];
        for edge in edges {
            has_cross[edge.from.doc.index()] = true;
            has_cross[edge.to.doc.index()] = true;
        }
        let schemes: Vec<LabelScheme> = has_cross
            .iter()
            .map(|&c| if c { LabelScheme::Hub } else { LabelScheme::Tree })
            .collect();

        let mut labels: Vec<Vec<(u32, u16)>> = vec![Vec::new(); node_count];

        // Tree documents: rebase the shard labels to dense indices (adding
        // the document base keeps each node's entries sorted).
        let mut shard_of_doc: Vec<Option<&GraphShard>> = vec![None; docs];
        for shard in shards {
            if let Some(doc) = shard.doc() {
                if doc.index() < docs {
                    shard_of_doc[doc.index()] = Some(shard);
                }
            }
        }
        for doc in collection.documents() {
            if schemes[doc.id.index()] == LabelScheme::Hub {
                continue;
            }
            let base = graph.doc_base(doc.id);
            let len = doc.len();
            match shard_of_doc[doc.id.index()] {
                Some(shard) if shard.tree_offsets.len() == len + 1 => {
                    for ord in 0..len {
                        let range =
                            shard.tree_offsets[ord] as usize..shard.tree_offsets[ord + 1] as usize;
                        for k in range {
                            labels[base as usize + ord]
                                .push((base + shard.tree_hubs[k], shard.tree_dists[k]));
                        }
                    }
                }
                _ => {
                    // No shard (or a foreign one): the document has no cross
                    // edges, so its CSR adjacency *is* the tree — relabel it
                    // here with the same algorithm the shard phase uses.
                    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); len];
                    for (ord, slot) in adj.iter_mut().enumerate() {
                        for &(target, _) in graph.neighbors_dense(base + ord as u32) {
                            slot.push(target - base);
                        }
                    }
                    let (offsets, hubs, dists) = centroid_tree_labels(&adj);
                    for ord in 0..len {
                        for k in offsets[ord] as usize..offsets[ord + 1] as usize {
                            labels[base as usize + ord].push((base + hubs[k], dists[k]));
                        }
                    }
                }
            }
        }

        // Hub components: pruned landmark labeling, hubs in descending-degree
        // order (dense index breaks ties), each BFS bounded at the radius and
        // pruned by the labels accumulated so far.
        let mut hub_nodes: Vec<u32> = Vec::new();
        for doc in collection.documents() {
            if schemes[doc.id.index()] == LabelScheme::Hub {
                let base = graph.doc_base(doc.id);
                hub_nodes.extend(base..base + doc.len() as u32);
            }
        }
        hub_nodes.sort_by_key(|&d| (std::cmp::Reverse(graph.neighbors_dense(d).len()), d));

        let mut hub_dist: Vec<u32> = vec![UNSET; node_count];
        let mut to_hub: Vec<u32> = vec![UNSET; hub_nodes.len()];
        let mut queue: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for (rank, &hub) in hub_nodes.iter().enumerate() {
            // Scatter the hub's own labels so the pruning query is O(|label|).
            for &(r, d) in &labels[hub as usize] {
                to_hub[r as usize] = d as u32;
            }
            queue.clear();
            touched.clear();
            hub_dist[hub as usize] = 0;
            queue.push(hub);
            touched.push(hub);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let du = hub_dist[u as usize];
                // Prune when an earlier hub already certifies a distance no
                // worse than the BFS level — the classic PLL cut that keeps
                // labels near-minimal.
                let mut q = UNSET;
                for &(r, d) in &labels[u as usize] {
                    let via = to_hub[r as usize].saturating_add(d as u32);
                    if via < q {
                        q = via;
                    }
                }
                if q <= du {
                    continue;
                }
                labels[u as usize].push((rank as u32, du as u16));
                if du < LABEL_RADIUS as u32 {
                    for &(next, _) in graph.neighbors_dense(u) {
                        if hub_dist[next as usize] == UNSET {
                            hub_dist[next as usize] = du + 1;
                            queue.push(next);
                            touched.push(next);
                        }
                    }
                }
            }
            for &t in &touched {
                hub_dist[t as usize] = UNSET;
            }
            for &(r, _) in &labels[hub as usize] {
                to_hub[r as usize] = UNSET;
            }
        }

        // Flatten into the CSR arenas.
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for l in &labels {
            total += l.len() as u32;
            offsets.push(total);
        }
        let mut hubs = Vec::with_capacity(total as usize);
        let mut dists = Vec::with_capacity(total as usize);
        for l in &labels {
            debug_assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "label keys must be sorted");
            for &(h, d) in l {
                hubs.push(h);
                dists.push(d);
            }
        }
        ConnectivityIndex { radius: LABEL_RADIUS, schemes, offsets, hubs, dists }
    }
}

/// Centroid-decomposition distance labels of a tree, as a per-node CSR
/// (`offsets`, `hubs`, `dists`) with each node's entries sorted by hub.
///
/// The tree is recursively split at centroids; every node records its exact
/// tree distance to each centroid "above" it in the decomposition, giving
/// `O(log n)` entries per node.  For any pair, the decomposition ancestor
/// that separates them lies on their tree path, so the 2-hop intersection
/// over these labels returns the exact distance at any depth.  Distances
/// deeper than `u16` saturate, which the query layer treats as "not covered"
/// and answers by BFS instead.
pub(crate) fn centroid_tree_labels(adj: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>, Vec<u16>) {
    let n = adj.len();
    let mut labels: Vec<Vec<(u32, u16)>> = vec![Vec::new(); n];
    let mut removed = vec![false; n];
    let mut comp: Vec<u32> = Vec::new();
    let mut parent: Vec<u32> = vec![UNSET; n];
    let mut size: Vec<u32> = vec![0; n];
    let mut dist: Vec<u16> = vec![0; n];
    let mut in_comp: Vec<bool> = vec![false; n];
    let mut seeds: Vec<u32> = Vec::new();

    for start in 0..n as u32 {
        if !labels[start as usize].is_empty() || removed[start as usize] {
            continue;
        }
        seeds.clear();
        seeds.push(start);
        while let Some(seed) = seeds.pop() {
            // Collect the alive component of `seed` in BFS order.
            comp.clear();
            comp.push(seed);
            in_comp[seed as usize] = true;
            parent[seed as usize] = UNSET;
            let mut head = 0;
            while head < comp.len() {
                let u = comp[head];
                head += 1;
                for &w in &adj[u as usize] {
                    if !removed[w as usize] && !in_comp[w as usize] {
                        in_comp[w as usize] = true;
                        parent[w as usize] = u;
                        comp.push(w);
                    }
                }
            }
            // Subtree sizes in reverse BFS order, then the classic centroid
            // walk: descend into any child subtree heavier than half.
            for &u in &comp {
                size[u as usize] = 1;
            }
            for &u in comp.iter().rev() {
                if parent[u as usize] != UNSET {
                    size[parent[u as usize] as usize] += size[u as usize];
                }
            }
            let half = comp.len() as u32 / 2;
            let mut centroid = seed;
            'walk: loop {
                for &w in &adj[centroid as usize] {
                    if in_comp[w as usize]
                        && !removed[w as usize]
                        && parent[w as usize] == centroid
                        && size[w as usize] > half
                    {
                        centroid = w;
                        continue 'walk;
                    }
                }
                break;
            }
            // BFS from the centroid labels the whole component with exact
            // tree distances (the path to a decomposition ancestor never
            // leaves its component).
            for &u in &comp {
                in_comp[u as usize] = false;
            }
            comp.clear();
            comp.push(centroid);
            in_comp[centroid as usize] = true;
            dist[centroid as usize] = 0;
            let mut head = 0;
            while head < comp.len() {
                let u = comp[head];
                head += 1;
                let du = dist[u as usize];
                labels[u as usize].push((centroid, du));
                for &w in &adj[u as usize] {
                    if !removed[w as usize] && !in_comp[w as usize] {
                        in_comp[w as usize] = true;
                        dist[w as usize] = du.saturating_add(1);
                        comp.push(w);
                    }
                }
            }
            for &u in &comp {
                in_comp[u as usize] = false;
            }
            removed[centroid as usize] = true;
            for &w in &adj[centroid as usize] {
                if !removed[w as usize] {
                    seeds.push(w);
                }
            }
        }
    }

    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut total = 0u32;
    for l in &mut labels {
        l.sort_unstable_by_key(|&(h, _)| h);
        total += l.len() as u32;
        offsets.push(total);
    }
    let mut hubs = Vec::with_capacity(total as usize);
    let mut dists = Vec::with_capacity(total as usize);
    for l in &labels {
        for &(h, d) in l {
            hubs.push(h);
            dists.push(d);
        }
    }
    (offsets, hubs, dists)
}
