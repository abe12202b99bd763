//! Component partition of the per-term sorted-access lists.
//!
//! A result tuple can only be connected when all of its nodes live in the
//! same document component of the data graph, so the rank join pairs a newly
//! seen node only with the already-seen entries of the other lists that share
//! its component.  This module groups each list's positions by component
//! once per search (a counting sort by the graph's dense component ids into
//! one CSR arena), so the join finds those partners with one lookup instead
//! of scanning the whole consumed prefix.
//!
//! Within a group the positions stay in ascending — that is, sorted-access —
//! order, so "the entries of list `j` seen so far in component `c`" is the
//! prefix of the group with `position < positions[j]`, enumerated in exactly
//! the order a filtered prefix scan would produce.
//!
//! # Memory
//!
//! One `u32` per posting plus `lists · (components + 2)` group offsets: 4
//! bytes on top of each 16-byte [`ScoredNode`], reused across searches
//! (≤ 0.3 MB for the broad queries of the four paper-scale corpora).

use seda_datagraph::DataGraph;
use seda_textindex::ScoredNode;

/// Positions of every term list grouped by document component (CSR).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ComponentPartition {
    /// List positions, grouped by list, then by component, ascending within
    /// a group.
    order: Vec<u32>,
    /// `components + 2` offsets into `order` per list: group `c` of list `j`
    /// is `order[group_start[j · (components + 2) + c] .. group_start[… + c + 1]]`.
    /// Group `components` is the catch-all for nodes of documents the graph
    /// does not know (they only ever join each other).
    group_start: Vec<u32>,
    /// Document components of the graph the lists were grouped by.
    components: usize,
}

/// Group of a node: its document's dense component id, clamped into the
/// catch-all group for documents outside the graph.
fn group_of(graph: &DataGraph, components: usize, entry: &ScoredNode) -> usize {
    (graph.doc_component(entry.node.doc) as usize).min(components)
}

impl ComponentPartition {
    /// Regroups `lists` by the components of `graph`, reusing the arenas.
    pub(crate) fn rebuild(&mut self, graph: &DataGraph, lists: &[Vec<ScoredNode>]) {
        let components = graph.doc_component_count();
        let stride = components + 2;
        let Self { order, group_start, .. } = self;
        group_start.clear();
        group_start.resize(lists.len() * stride, 0);
        order.clear();
        order.resize(lists.iter().map(Vec::len).sum(), 0);
        let mut base = 0u32;
        for (list, starts) in lists.iter().zip(group_start.chunks_exact_mut(stride)) {
            // Counting sort: sizes, then running starts used as scatter
            // cursors (stable, so positions ascend within a group), then the
            // cursors — each now at its group's end — shifted back to starts.
            for entry in list {
                starts[group_of(graph, components, entry) + 1] += 1;
            }
            starts[0] = base;
            for c in 0..=components {
                starts[c + 1] += starts[c];
            }
            for (pos, entry) in list.iter().enumerate() {
                let cursor = &mut starts[group_of(graph, components, entry)];
                order[*cursor as usize] = pos as u32;
                *cursor += 1;
            }
            starts.copy_within(0..=components, 1);
            starts[0] = base;
            base += list.len() as u32;
        }
        self.components = components;
    }

    /// The positions of list `j` whose nodes share `node`'s component and
    /// were consumed before `consumed` (the list's sorted-access cursor), in
    /// sorted-access order.
    // Read once per sorted access and list from inside the join loop.  Left to
    // the compiler, whether it is inlined there depends on what else the crate
    // holds (cross-unit import thresholds): a second scoring function beside
    // the join was enough to lose it, 12–18% of a googlebase-flat round.
    #[inline]
    pub(crate) fn seen(
        &self,
        graph: &DataGraph,
        j: usize,
        node: &ScoredNode,
        consumed: usize,
    ) -> &[u32] {
        let slot = j * (self.components + 2) + group_of(graph, self.components, node);
        let group =
            &self.order[self.group_start[slot] as usize..self.group_start[slot + 1] as usize];
        &group[..group.partition_point(|&pos| (pos as usize) < consumed)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_datagraph::GraphConfig;
    use seda_xmlstore::{parse_collection, DocId, NodeId};

    fn entry(doc: u32, node: u32) -> ScoredNode {
        ScoredNode { node: NodeId::new(DocId(doc), node), score: 1.0 }
    }

    /// Three unlinked documents: three components.
    fn graph() -> DataGraph {
        let c = parse_collection(vec![
            ("a.xml", "<a><x>1</x><y>2</y></a>"),
            ("b.xml", "<b><x>3</x></b>"),
            ("c.xml", "<c><x>4</x></c>"),
        ])
        .unwrap();
        DataGraph::build(&c, &GraphConfig::default())
    }

    #[test]
    fn groups_keep_sorted_access_order_and_respect_the_cursor() {
        let g = graph();
        assert_eq!(g.doc_component_count(), 3);
        let lists = vec![
            vec![entry(1, 1), entry(0, 1), entry(2, 1), entry(0, 2), entry(1, 0)],
            vec![entry(2, 0), entry(0, 0)],
        ];
        let mut p = ComponentPartition::default();
        p.rebuild(&g, &lists);
        let probe = entry(0, 0);
        assert_eq!(p.seen(&g, 0, &probe, 5), &[1, 3]);
        assert_eq!(p.seen(&g, 0, &probe, 3), &[1], "position 3 is not consumed yet");
        assert_eq!(p.seen(&g, 0, &probe, 0), &[] as &[u32]);
        assert_eq!(p.seen(&g, 0, &entry(1, 9), 5), &[0, 4]);
        assert_eq!(p.seen(&g, 1, &entry(2, 1), 2), &[0]);
        assert_eq!(p.seen(&g, 1, &entry(1, 1), 2), &[] as &[u32], "no partner in component b");
    }

    #[test]
    fn rebuild_forgets_the_previous_search() {
        let g = graph();
        let mut p = ComponentPartition::default();
        p.rebuild(&g, &[vec![entry(0, 1), entry(0, 2)], vec![entry(1, 1)], vec![entry(2, 1)]]);
        let lists = vec![vec![entry(1, 1)], vec![entry(1, 0), entry(0, 0)]];
        p.rebuild(&g, &lists);
        let mut fresh = ComponentPartition::default();
        fresh.rebuild(&g, &lists);
        assert_eq!(p, fresh);
        assert_eq!(p.seen(&g, 1, &entry(1, 1), 2), &[0]);
    }

    #[test]
    fn documents_outside_the_graph_share_the_catch_all_bucket() {
        let g = graph();
        let lists = vec![vec![entry(7, 0), entry(0, 0), entry(9, 0)]];
        let mut p = ComponentPartition::default();
        p.rebuild(&g, &lists);
        assert_eq!(p.seen(&g, 0, &entry(8, 0), 3), &[0, 2]);
    }
}
