//! Component semi-join and partition of the per-term sorted-access lists.
//!
//! A result tuple can only be connected when all of its nodes live in the
//! same document component of the data graph (Definition 4).  So an entry can
//! only take part in an answer when every other list has an entry in its
//! component too: the component is *live*.  Before the join, this module
//! drops every entry of a component that is not live from every list — the
//! semi-join reduction of Bernstein & Chiu (JACM 1981) — and groups what
//! survives of each list by component (a counting sort by the graph's dense
//! component ids into one CSR arena).  The rank join then reads only entries
//! that can meet, and pairs a newly seen node only with the already-seen
//! entries of the other lists that share its component, one lookup a list
//! instead of a scan of the whole consumed prefix.
//!
//! Both steps share one counting pass.  It counts each list's entries per
//! component; a component is live when every list counted at least one entry
//! there (the smallest count over the lists is not 0), and the catch-all
//! group of documents outside the graph follows the same rule.  The running
//! group starts skip the dead groups, a list that lost entries is compacted
//! in place, keeping its order, and its survivors are scattered into their
//! groups.  When every component is live — terms that reach the same
//! documents, such as factbook-olap's broad `(trade_country, *) AND
//! (percentage, *)` — nothing is copied.  Answers stay exact: a dropped entry
//! belongs to no connected tuple.  What moves are the join's counters: sorted
//! and random accesses, and the threshold, which reads the best and frontier
//! scores of the compacted lists.
//!
//! Within a group the positions stay in ascending — that is, sorted-access —
//! order, so "the entries of list `j` seen so far in component `c`" is the
//! prefix of the group with `position < positions[j]`, enumerated in exactly
//! the order a filtered prefix scan would produce.
//!
//! # Memory
//!
//! One `u32` a surviving entry plus `lists · (components + 2)` `u32` group
//! offsets, reused across searches; while liveness is read, the entry arena
//! holds one `u32` a component instead.  The offsets follow the graph, not
//! the query: on paper-scale googlebase-flat (10,000 one-document
//! components) a three-term search holds 0.12 MB of them, whatever its lists
//! hold.

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
    /// Drops from every list the entries of components where some list has
    /// none, keeping the survivors' order, and regroups the lists by the
    /// components of `graph`, reusing the arenas.
    ///
    /// One list has no partner to meet: it is left whole and the partition
    /// is not built, since the join looks up partners only in lists other
    /// than the one just read.  When a list is empty no component is live,
    /// and every list is emptied.
    pub(crate) fn semi_join(&mut self, graph: &DataGraph, lists: &mut [Vec<ScoredNode>]) {
        if lists.len() < 2 {
            return;
        }
        let components = graph.doc_component_count();
        let stride = components + 2;
        let Self { order, group_start, .. } = self;
        group_start.clear();
        group_start.resize(lists.len() * stride, 0);
        // Sizes: group `c` of list `j` is counted at `c` of row `j`; the
        // row's last slot stays 0 and becomes its end.
        for (list, sizes) in lists.iter().zip(group_start.chunks_exact_mut(stride)) {
            for entry in list {
                sizes[group_of(graph, components, entry)] += 1;
            }
        }
        // `order` first holds each group's smallest size over the lists: a
        // group is live when that is not 0.
        let mut rows = group_start.chunks_exact(stride);
        order.clear();
        order.extend_from_slice(rows.next().expect("invariant: two lists or more"));
        for row in rows {
            order.iter_mut().zip(row).for_each(|(least, &size)| *least = (*least).min(size));
        }
        let live = &order[..];
        // Running starts over the live groups' sizes, one list after the
        // other; a list that has entries in dead groups drops them, in order.
        let mut base = 0u32;
        for (list, starts) in lists.iter_mut().zip(group_start.chunks_exact_mut(stride)) {
            let first = base;
            for (start, &least) in starts.iter_mut().zip(live) {
                let size = if least == 0 { 0 } else { *start };
                *start = base;
                base += size;
            }
            if (base - first) as usize != list.len() {
                list.retain(|entry| live[group_of(graph, components, entry)] != 0);
            }
        }
        order.clear();
        order.resize(base as usize, 0);
        for (list, starts) in lists.iter().zip(group_start.chunks_exact_mut(stride)) {
            // Scatter with the starts as cursors (stable, so positions
            // ascend within a group), then shift the cursors — each now at
            // its group's end — back to starts.
            let first = starts[0];
            for (pos, entry) in list.iter().enumerate() {
                let cursor = &mut starts[group_of(graph, components, entry)];
                order[*cursor as usize] = pos as u32;
                *cursor += 1;
            }
            starts.copy_within(0..=components, 1);
            starts[0] = first;
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
        let mut lists = vec![
            vec![entry(1, 1), entry(0, 1), entry(2, 1), entry(0, 2), entry(1, 0), entry(2, 2)],
            vec![entry(2, 0), entry(0, 0), entry(1, 2)],
        ];
        let mut p = ComponentPartition::default();
        p.semi_join(&g, &mut lists);
        let probe = entry(0, 0);
        assert_eq!(p.seen(&g, 0, &probe, 6), &[1, 3]);
        assert_eq!(p.seen(&g, 0, &probe, 3), &[1], "position 3 is not consumed yet");
        assert_eq!(p.seen(&g, 0, &probe, 0), &[] as &[u32]);
        assert_eq!(p.seen(&g, 0, &entry(1, 9), 6), &[0, 4]);
        assert_eq!(p.seen(&g, 0, &entry(2, 9), 6), &[2, 5]);
        assert_eq!(p.seen(&g, 1, &entry(2, 1), 3), &[0]);
        assert_eq!(p.seen(&g, 1, &entry(1, 1), 2), &[] as &[u32], "b's partner is unread");
    }

    #[test]
    fn a_component_some_list_misses_is_dropped_from_every_list() {
        let g = graph();
        // Component b has no entry in the last list, component c none in the
        // first: only component a is live.
        let mut lists = vec![
            vec![entry(1, 1), entry(0, 1), entry(0, 2), entry(1, 0)],
            vec![entry(2, 0), entry(1, 2), entry(0, 0), entry(2, 1), entry(0, 3)],
            vec![entry(0, 4), entry(2, 2)],
        ];
        let mut p = ComponentPartition::default();
        p.semi_join(&g, &mut lists);
        // Survivors keep their sorted-access order.
        assert_eq!(lists[0], [entry(0, 1), entry(0, 2)]);
        assert_eq!(lists[1], [entry(0, 0), entry(0, 3)]);
        assert_eq!(lists[2], [entry(0, 4)]);
        let probe = entry(0, 9);
        assert_eq!(p.seen(&g, 0, &probe, 2), &[0, 1]);
        assert_eq!(p.seen(&g, 1, &probe, 2), &[0, 1]);
        assert_eq!(p.seen(&g, 2, &probe, 1), &[0]);
        for dead in [entry(1, 9), entry(2, 9)] {
            for (j, list) in lists.iter().enumerate() {
                assert_eq!(p.seen(&g, j, &dead, list.len()), &[] as &[u32]);
            }
        }
    }

    #[test]
    fn lists_that_share_no_component_are_all_emptied() {
        let g = graph();
        let mut p = ComponentPartition::default();
        let mut disjoint = vec![vec![entry(0, 0), entry(0, 1)], vec![entry(1, 0), entry(2, 0)]];
        p.semi_join(&g, &mut disjoint);
        assert!(disjoint.iter().all(Vec::is_empty), "{disjoint:?}");
        let mut one_empty = vec![vec![entry(0, 0)], vec![], vec![entry(0, 1)]];
        p.semi_join(&g, &mut one_empty);
        assert!(one_empty.iter().all(Vec::is_empty), "{one_empty:?}");
    }

    #[test]
    fn an_all_live_semi_join_copies_nothing() {
        let g = graph();
        let mut lists = vec![
            vec![entry(0, 1), entry(1, 1), entry(7, 0), entry(0, 2)],
            vec![entry(9, 0), entry(1, 0), entry(0, 0)],
        ];
        let before = lists.clone();
        let buffers: Vec<*const ScoredNode> = lists.iter().map(|l| l.as_ptr()).collect();
        let mut p = ComponentPartition::default();
        p.semi_join(&g, &mut lists);
        assert_eq!(lists, before);
        assert_eq!(lists.iter().map(|l| l.as_ptr()).collect::<Vec<_>>(), buffers);
        assert_eq!(p.order.len(), 7, "every entry is grouped");
        assert_eq!(p.seen(&g, 0, &entry(0, 0), 4), &[0, 3]);
    }

    #[test]
    fn one_list_is_left_whole() {
        let g = graph();
        let mut lists = vec![vec![entry(0, 1), entry(7, 0), entry(2, 0)]];
        let before = lists.clone();
        let mut p = ComponentPartition::default();
        p.semi_join(&g, &mut lists);
        assert_eq!(lists, before);
        assert_eq!(p, ComponentPartition::default(), "no partner is ever looked up");
    }

    #[test]
    fn semi_join_forgets_the_previous_search() {
        let g = graph();
        let mut p = ComponentPartition::default();
        // Three lists, then two: a reused arena sized for the longer search
        // must not leak group offsets or positions into the shorter one.
        let mut earlier = vec![
            vec![entry(0, 1), entry(0, 2)],
            vec![entry(1, 1), entry(0, 5)],
            vec![entry(2, 1), entry(0, 6)],
        ];
        p.semi_join(&g, &mut earlier);
        assert_eq!(earlier, [vec![entry(0, 1), entry(0, 2)], vec![entry(0, 5)], vec![entry(0, 6)]]);
        let lists = vec![vec![entry(1, 1), entry(0, 3)], vec![entry(1, 0), entry(0, 0)]];
        let (mut reused, mut fresh_lists) = (lists.clone(), lists);
        p.semi_join(&g, &mut reused);
        let mut fresh = ComponentPartition::default();
        fresh.semi_join(&g, &mut fresh_lists);
        assert_eq!((&p, &reused), (&fresh, &fresh_lists));
        assert_eq!(p.seen(&g, 1, &entry(1, 1), 2), &[0]);
    }

    #[test]
    fn the_catch_all_group_follows_the_same_rule() {
        let g = graph();
        let mut p = ComponentPartition::default();
        // Documents 7, 8 and 9 are outside the graph: one catch-all group,
        // live here because both lists hold an entry in it.
        let mut lists = vec![vec![entry(7, 0), entry(0, 0), entry(9, 0)], vec![entry(8, 0)]];
        p.semi_join(&g, &mut lists);
        assert_eq!(lists[0], [entry(7, 0), entry(9, 0)], "component a is dead");
        assert_eq!(p.seen(&g, 0, &entry(8, 0), 2), &[0, 1]);
        // Dead when one list has no entry outside the graph.
        let mut lists = vec![vec![entry(7, 0), entry(0, 0)], vec![entry(0, 1)]];
        p.semi_join(&g, &mut lists);
        assert_eq!(lists, [[entry(0, 0)], [entry(0, 1)]]);
        assert_eq!(p.seen(&g, 0, &entry(7, 0), 1), &[] as &[u32]);
    }
}
