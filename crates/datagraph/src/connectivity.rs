//! The connectivity oracle: bounded distances without a per-query graph
//! search.
//!
//! Connection checks are the inner loop of every top-k query (Definition 4
//! demands a connected witness subgraph, and compactness needs pairwise
//! distances).  The oracle answers them from what the build froze, chosen
//! **per document** by one bit: is the document touched by a cross edge?
//!
//! * **Tree documents** (untouched) are components of their own whose part
//!   of the data graph *is* the XML tree, so a distance is the climb from
//!   both nodes to their lowest common ancestor — the ancestor relation the
//!   paper's Dewey node references encode.  The traversal layer walks the
//!   adjacency (preorder indices, parent first); nothing is stored.
//! * **Hub documents** get pruned landmark labels: hubs in descending-degree
//!   order, each running a BFS pruned by the labels so far and cut off at
//!   [`MAX_DEPTH`] hops, so a label distance `d` is exact when
//!   `d <= MAX_DEPTH` and otherwise proves only that the pair is farther
//!   apart.  The cut bounds the labels on long cross-document chains, whose
//!   equal-degree links an uncut BFS labels quadratically
//!   (`chain_labels_grow_linearly`; the figures are in the README).
//!
//! The hub labels live in one CSR arena (`offsets`, `hubs`, `dists`)
//! indexed by dense node, empty when no cross edge exists.  A pair query
//! merge-scans two sorted `(hub, distance)` lists.  The one-to-many form
//! (Akiba, Iwata, Yoshida, SIGMOD 2013) scatters the source's label once
//! (`scatter`) and answers each target by one branch-free pass over the
//! target's label alone (`pinned_distance`): 2.4–2.7× on Mondial's
//! pair-scoring join.  Every entry scanned, and every parent step of a walk,
//! counts as one `label_probes`.  See [`crate::pin`].

use serde::{Deserialize, Serialize};

use seda_xmlstore::DocId;

use crate::graph::{DataGraph, Edge};

/// The deepest bound the oracle answers: hub labelling stops `MAX_DEPTH`
/// hops from each hub, so a label distance above it means only "farther than
/// `MAX_DEPTH`", and a parent walk gives up after `MAX_DEPTH` steps.  Kept
/// above the default search depth (12).  Traversal queries clamp their
/// `max_depth` to it.
pub const MAX_DEPTH: usize = 16;

/// "The pinned source has no entry under this key" in the scattered array of
/// the one-to-many query.  Above [`MAX_DEPTH`] on purpose: a sum through a
/// missing key lands on the "farther than `MAX_DEPTH`" side by itself,
/// without a branch.
pub(crate) const NO_ENTRY: u16 = u16::MAX;

const UNSET: u32 = u32::MAX;

/// The precomputed distance-label substrate of a [`DataGraph`].
///
/// Built once in [`DataGraph::build`] by a landmark pass over the documents
/// cross edges touch; immutable afterwards.  Tree documents carry one bit
/// and no label.  The hub labels live in three flat arrays, CSR-style: the
/// node of dense index `i` has entries `hubs[offsets[i]..offsets[i+1]]`
/// (sorted ascending) with parallel distances in `dists`.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectivityIndex {
    /// Per document: true when a cross edge touches it (its nodes carry hub
    /// labels), false for a tree document (answered by parent walks).
    pub(crate) hub_docs: Vec<bool>,
    /// Label offsets, one more than the graph's nodes; empty when no document
    /// is touched.  Nodes of tree documents hold empty ranges.
    pub(crate) offsets: Vec<u32>,
    /// Hub ranks, sorted ascending per node.
    pub(crate) hubs: Vec<u32>,
    /// Distance to each hub (parallel to `hubs`).
    pub(crate) dists: Vec<u16>,
}

impl ConnectivityIndex {
    /// True when a cross edge touches `doc`, so its distances come from hub
    /// labels (false for documents outside the collection).
    pub(crate) fn is_hub(&self, doc: DocId) -> bool {
        self.hub_docs.get(doc.index()).copied().unwrap_or(false)
    }

    /// Bytes occupied by the oracle: the per-document bit and the hub-label
    /// arenas.
    pub fn label_bytes(&self) -> usize {
        self.hub_docs.len() * std::mem::size_of::<bool>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.hubs.len() * std::mem::size_of::<u32>()
            + self.dists.len() * std::mem::size_of::<u16>()
    }

    /// True when the index was built over a graph of `docs` documents (the
    /// traversal layer's guard before trusting the labels).
    pub(crate) fn covers(&self, docs: usize) -> bool {
        self.hub_docs.len() == docs
    }

    /// Number of label slots: the graph's nodes when a cross edge exists,
    /// else 0 — a bound on the hub ranks used as label keys.
    pub(crate) fn slots(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Label entries of one dense node of a hub document.
    fn entries(&self, dense: u32) -> (&[u32], &[u16]) {
        let lo = self.offsets[dense as usize] as usize;
        let hi = self.offsets[dense as usize + 1] as usize;
        (&self.hubs[lo..hi], &self.dists[lo..hi])
    }

    /// Minimum `dist(a, hub) + dist(hub, b)` over the common hubs of two
    /// dense nodes of hub documents — the 2-hop distance query.  Returns more
    /// than [`MAX_DEPTH`] when the true distance is.  Every entry scanned
    /// counts one probe.
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

    /// Scatters `a`'s label into `pinned` (`pinned[key] = dist(a, key)`,
    /// [`NO_ENTRY`] elsewhere), counting `|L(a)|` probes.  Returns false —
    /// writing nothing — when a key of `a` lies outside `pinned`.
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

    /// [`ConnectivityIndex::label_distance`] from the node scattered in
    /// `pinned` to `b` by one pass over `L(b)`, counting `|L(b)|` probes: a
    /// key the source lacks reads [`NO_ENTRY`], which alone exceeds
    /// [`MAX_DEPTH`].
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
    /// touches and runs the pruned landmark pass over their nodes.
    /// Deterministic: depends only on the frozen adjacency and the edges.
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

        // Pruned landmark labeling over the hub documents' nodes, hubs in
        // descending-degree order (dense index breaks ties), each BFS pruned
        // by the labels accumulated so far and cut off at `MAX_DEPTH`.  A
        // hub's BFS never leaves the hub documents.
        let mut hub_nodes: Vec<u32> = (0..docs)
            .filter(|&doc| hub_docs[doc])
            .flat_map(|doc| graph.doc_offsets[doc]..graph.doc_offsets[doc + 1])
            .collect();
        hub_nodes.sort_by_key(|&d| (std::cmp::Reverse(graph.neighbors_dense(d).len()), d));

        let node_count = graph.node_count();
        let mut labels: Vec<Vec<(u32, u16)>> = vec![Vec::new(); node_count];
        let mut hub_dist: Vec<u32> = vec![UNSET; node_count];
        let mut to_hub: Vec<u32> = vec![UNSET; hub_nodes.len()];
        let mut queue: Vec<u32> = Vec::new();
        for (rank, &hub) in hub_nodes.iter().enumerate() {
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
                labels[u as usize].push((rank as u32, du as u16));
                if (du as usize) < MAX_DEPTH {
                    for &(next, _) in graph.neighbors_dense(u) {
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
        ConnectivityIndex { hub_docs, offsets, hubs, dists }
    }
}
