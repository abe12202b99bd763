//! The connectivity oracle: bounded distances without a per-query graph
//! search.
//!
//! Connection checks are the inner loop of every top-k query (Definition 4
//! demands a connected witness subgraph, and compactness needs pairwise
//! distances).  The oracle answers them from what the build froze, by one
//! rule: **labels on the 2-core; every other node of a hub document climbs
//! to it; tree documents are a parent walk.**
//!
//! * **Tree documents** (no cross edge touches them, one bit per document)
//!   are components of their own whose part of the data graph *is* the XML
//!   tree, so a distance is the climb from both nodes to their lowest common
//!   ancestor.  The traversal layer walks the adjacency (preorder indices,
//!   parent first); nothing is stored.
//! * **Hub documents** are peeled first (the core–fringe decomposition of
//!   Akiba, Sommer, Kawarabayashi, EDBT 2012): nodes with at most one
//!   remaining adjacency entry are removed until none is left, so every tree
//!   hanging off the rest of the graph goes — a doubled edge keeps both of
//!   its ends.  A peeled node keeps its `depth` below the core and its
//!   attachment, the core node its climb ends at.  Its `up`, the one
//!   neighbour one step closer to the core, is not stored: it is the one
//!   neighbour one step shallower (every other neighbour of the node hangs
//!   from it, one step deeper), and the adjacency lists it first whenever
//!   it is the XML parent.  A component with no core has one root, the last
//!   node peeled, and every node of it attaches to that root.
//! * **The 2-core** gets pruned landmark labels: core nodes in descending
//!   core-degree order, each running a BFS over the core pruned by the
//!   labels so far and cut off at [`MAX_DEPTH`] hops, so a label distance
//!   `d` is exact when `d <= MAX_DEPTH` and otherwise proves only that the
//!   pair is farther apart.  The cut bounds the labels on long cross-document
//!   rings, whose equal-degree links an uncut BFS labels quadratically
//!   (`chain_labels_grow_linearly`; the figures are in the README).
//!
//! Two nodes of one attachment are joined only inside their hanging tree, so
//! their distance is the climb of the deeper one by `up`; two nodes of
//! different attachments are `depth(a) + core(att(a), att(b)) + depth(b)`,
//! since a shortest path between core nodes never enters a hanging tree.
//!
//! The core labels live in one CSR arena (`offsets`, `hubs`, `dists`)
//! indexed by core rank; the per-node `depth` and `attach` arrays are
//! indexed by dense node.  All are empty when no cross edge exists.  A pair
//! query merge-scans two sorted `(hub, distance)` lists.  The one-to-many
//! form (Akiba, Iwata, Yoshida, SIGMOD 2013) scatters the source
//! attachment's label once (`scatter`) and answers each target by one
//! branch-free pass over its attachment's label alone (`pinned_distance`).
//! Every entry scanned, and every step of a climb or a walk, counts as one
//! `label_probes`.  See [`crate::pin`].

use seda_xmlstore::DocId;

use crate::graph::{DataGraph, Edge};

/// The deepest bound the oracle answers: core labelling stops `MAX_DEPTH`
/// hops from each hub, so a label distance above it means only "farther than
/// `MAX_DEPTH`", and a climb or a parent walk gives up after `MAX_DEPTH`
/// steps.  Kept above the default search depth (12).  Traversal queries
/// clamp their `max_depth` to it.
pub const MAX_DEPTH: usize = 16;

/// "The pinned source has no entry under this key" in the scattered array of
/// the one-to-many query.  Above [`MAX_DEPTH`] on purpose: a sum through a
/// missing key lands on the "farther than `MAX_DEPTH`" side by itself,
/// without a branch.
pub(crate) const NO_ENTRY: u16 = u16::MAX;

/// The attachment of every node of a hub component with no 2-core (its
/// nodes all hang from one root) and of every node of a tree document.
pub(crate) const NO_CORE: u32 = u32::MAX;

const UNSET: u32 = u32::MAX;

/// The precomputed distance substrate of a [`DataGraph`].
///
/// Built once in [`DataGraph::build`] by peeling the documents cross edges
/// touch down to their 2-core and running a landmark pass over the core;
/// immutable afterwards.  Tree documents carry one bit and nothing else.
// surface: type in a public signature (`DataGraph::connectivity`)
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ConnectivityIndex {
    /// Per document: true when a cross edge touches it (its nodes are peeled
    /// and climb to core labels), false for a tree document (answered by
    /// parent walks).
    pub(crate) hub_docs: Vec<bool>,
    /// Per dense node, empty when no document is touched: hops from the
    /// node to its attachment (0 at a core node or a root).
    pub(crate) depth: Vec<u32>,
    /// Per dense node: the core rank of its attachment (a core node's own
    /// rank), or [`NO_CORE`] in a component without a core.
    pub(crate) attach: Vec<u32>,
    /// Label offsets by core rank, one more than the core's nodes.
    pub(crate) offsets: Vec<u32>,
    /// Hub ranks, sorted ascending per core node.
    pub(crate) hubs: Vec<u32>,
    /// Distance to each hub (parallel to `hubs`), at most [`MAX_DEPTH`].
    pub(crate) dists: Vec<u8>,
}

impl ConnectivityIndex {
    /// True when a cross edge touches `doc`, so its distances come from the
    /// peel and the core labels (false for documents outside the
    /// collection).
    pub(crate) fn is_hub(&self, doc: DocId) -> bool {
        self.hub_docs.get(doc.index()).copied().unwrap_or(false)
    }

    /// Bytes occupied by the oracle: the per-document bit, the per-node
    /// peel arrays and the core-label arenas.
    pub fn label_bytes(&self) -> usize {
        self.hub_docs.len() * std::mem::size_of::<bool>()
            + (self.depth.len() + self.attach.len()) * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.hubs.len() * std::mem::size_of::<u32>()
            + self.dists.len() * std::mem::size_of::<u8>()
    }

    /// True when the index was built over a graph of `docs` documents (the
    /// traversal layer's guard before trusting the labels).
    pub(crate) fn covers(&self, docs: usize) -> bool {
        self.hub_docs.len() == docs
    }

    /// Number of core nodes — a bound on the hub ranks used as label keys.
    pub(crate) fn slots(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Label entries of the core node of rank `rank`.
    fn entries(&self, rank: u32) -> (&[u32], &[u8]) {
        let lo = self.offsets[rank as usize] as usize;
        let hi = self.offsets[rank as usize + 1] as usize;
        (&self.hubs[lo..hi], &self.dists[lo..hi])
    }

    /// Minimum `dist(a, hub) + dist(hub, b)` over the common hubs of the
    /// core nodes of ranks `a` and `b` — the 2-hop distance query.  Returns
    /// more than [`MAX_DEPTH`] when the true distance is.  Every entry
    /// scanned counts one probe.
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

    /// Scatters the label of core rank `a` into `pinned` (`pinned[key] =
    /// dist(a, key)`, [`NO_ENTRY`] elsewhere), counting `|L(a)|` probes.
    /// Returns false — writing nothing — when a key of `a` lies outside
    /// `pinned`.
    pub(crate) fn scatter(&self, a: u32, pinned: &mut [u16], probes: &mut u64) -> bool {
        let (hubs, dists) = self.entries(a);
        // Keys ascend, so the last one bounds them all.
        if hubs.last().is_some_and(|&key| key as usize >= pinned.len()) {
            return false;
        }
        for (&key, &d) in hubs.iter().zip(dists) {
            debug_assert_eq!(pinned[key as usize], NO_ENTRY, "a pinned label was left behind");
            pinned[key as usize] = d as u16;
        }
        *probes += hubs.len() as u64;
        true
    }

    /// Undoes [`ConnectivityIndex::scatter`] for the same rank, leaving
    /// `pinned` all-[`NO_ENTRY`] again in `O(|L(a)|)`.
    pub(crate) fn unscatter(&self, a: u32, pinned: &mut [u16]) {
        for &key in self.entries(a).0 {
            pinned[key as usize] = NO_ENTRY;
        }
    }

    /// [`ConnectivityIndex::label_distance`] from the rank scattered in
    /// `pinned` to rank `b` by one pass over `L(b)`, counting `|L(b)|`
    /// probes: a key the source lacks reads [`NO_ENTRY`], which alone
    /// exceeds [`MAX_DEPTH`].
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

    /// Builds the index with the graph: marks the documents a cross edge
    /// touches, peels their nodes down to the 2-core and runs the pruned
    /// landmark pass over the core.  Deterministic: depends only on the
    /// frozen adjacency and the edges.
    pub(crate) fn assemble(graph: &DataGraph, edges: &[Edge]) -> ConnectivityIndex {
        let docs = graph.doc_count();
        let mut hub_docs = vec![false; docs];
        for edge in edges {
            hub_docs[edge.from.doc.index()] = true;
            hub_docs[edge.to.doc.index()] = true;
        }
        if edges.is_empty() {
            return ConnectivityIndex { hub_docs, ..ConnectivityIndex::default() };
        }
        let hub_nodes: Vec<u32> = (0..docs)
            .filter(|&doc| hub_docs[doc])
            .flat_map(|doc| graph.doc_offsets[doc]..graph.doc_offsets[doc + 1])
            .collect();

        // Peel: a node with at most one remaining adjacency entry leaves,
        // and the neighbour that entry names — the one step closer to the
        // core — loses one.  Adjacency entries are counted, not neighbours,
        // so both ends of a doubled edge stay.  Each node enters the queue
        // once, when its count first drops to one (or starts there).
        let node_count = graph.node_count();
        let mut up: Vec<u32> = (0..node_count as u32).collect();
        let mut remaining = vec![0u32; node_count];
        let mut peeled = vec![false; node_count];
        let mut queue: Vec<u32> = Vec::new();
        for &v in &hub_nodes {
            remaining[v as usize] = graph.neighbors_dense(v).len() as u32;
            if remaining[v as usize] <= 1 {
                queue.push(v);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            peeled[v as usize] = true;
            // A count of zero here makes `v` the root of a core-less
            // component: its `up` stays itself.
            if remaining[v as usize] == 1 {
                let &(u, _) = graph
                    .neighbors_dense(v)
                    .iter()
                    .find(|&&(u, _)| !peeled[u as usize])
                    .expect("invariant: a remaining entry names an unpeeled neighbour");
                up[v as usize] = u;
                remaining[u as usize] -= 1;
                if remaining[u as usize] == 1 {
                    queue.push(u);
                }
            }
        }

        // Rank the core in descending core-degree order — the entries left
        // after the peel, all naming core nodes; dense index breaks ties —
        // and a core node's attachment is its own rank.  Then every
        // peeled node, nearest the core first, takes its `up`'s attachment
        // one step deeper.
        let mut core: Vec<u32> =
            hub_nodes.iter().copied().filter(|&v| !peeled[v as usize]).collect();
        core.sort_by_key(|&v| (std::cmp::Reverse(remaining[v as usize]), v));
        let mut depth = vec![0u32; node_count];
        let mut attach = vec![NO_CORE; node_count];
        for (rank, &v) in core.iter().enumerate() {
            attach[v as usize] = rank as u32;
        }
        for &v in queue.iter().rev() {
            let u = up[v as usize];
            if u != v {
                depth[v as usize] = depth[u as usize] + 1;
                attach[v as usize] = attach[u as usize];
            }
        }

        // The core's adjacency by rank, then pruned landmark labelling over
        // it: each hub's BFS pruned by the labels accumulated so far and cut
        // off at `MAX_DEPTH`.
        let mut core_offsets = Vec::with_capacity(core.len() + 1);
        let mut core_targets = Vec::new();
        core_offsets.push(0u32);
        for &v in &core {
            core_targets.extend(
                graph
                    .neighbors_dense(v)
                    .iter()
                    .filter(|&&(w, _)| !peeled[w as usize])
                    .map(|&(w, _)| attach[w as usize]),
            );
            core_offsets.push(core_targets.len() as u32);
        }
        let core_neighbors = |r: u32| {
            &core_targets[core_offsets[r as usize] as usize..core_offsets[r as usize + 1] as usize]
        };
        let mut labels: Vec<Vec<(u32, u8)>> = vec![Vec::new(); core.len()];
        let mut hub_dist: Vec<u32> = vec![UNSET; core.len()];
        let mut to_hub: Vec<u32> = vec![UNSET; core.len()];
        for hub in 0..core.len() as u32 {
            // Scatter the hub's own labels so the pruning query is O(|label|).
            for &(r, d) in &labels[hub as usize] {
                to_hub[r as usize] = d as u32;
            }
            queue.clear();
            hub_dist[hub as usize] = 0;
            queue.push(hub);
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
                labels[u as usize].push((hub, du as u8));
                if (du as usize) < MAX_DEPTH {
                    for &next in core_neighbors(u) {
                        if hub_dist[next as usize] == UNSET {
                            hub_dist[next as usize] = du + 1;
                            queue.push(next);
                        }
                    }
                }
            }
            for &t in &queue {
                hub_dist[t as usize] = UNSET;
            }
            for &(r, _) in &labels[hub as usize] {
                to_hub[r as usize] = UNSET;
            }
        }

        // Flatten into the CSR arenas.
        let mut offsets = Vec::with_capacity(labels.len() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for l in &labels {
            total = u32::try_from(l.len())
                .ok()
                .and_then(|len| total.checked_add(len))
                .expect("invariant: label offsets end at the arena length (csr-offsets)");
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
        ConnectivityIndex { hub_docs, depth, attach, offsets, hubs, dists }
    }
}
