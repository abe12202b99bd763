//! Plain breadth-first search over the data graph's adjacency, as the
//! reference the connectivity oracle's answers are judged against: a
//! `HashMap` of distances filled from [`DataGraph::neighbors`], sharing no
//! code with the core labels, the climbs and parent walks, the traversal
//! scratch or the pinned query.
//!
//! Included as `mod reference;` by the root suites that judge the oracle,
//! following `crates/twigjoin/tests/reference/`.

use std::collections::{HashMap, VecDeque};

use seda_datagraph::DataGraph;
use seda_xmlstore::NodeId;

/// The distance of every node within `max_depth` hops of `source`, `source`
/// itself included at 0.
pub fn distances(graph: &DataGraph, source: NodeId, max_depth: usize) -> HashMap<NodeId, usize> {
    let mut reached = HashMap::from([(source, 0usize)]);
    let mut queue = VecDeque::from([source]);
    while let Some(current) = queue.pop_front() {
        let depth = reached[&current];
        if depth >= max_depth {
            continue;
        }
        for (next, _) in graph.neighbors(current) {
            reached.entry(next).or_insert_with(|| {
                queue.push_back(next);
                depth + 1
            });
        }
    }
    reached
}

/// Definition 4's witness test from `reached`, the [`distances`] of the
/// tuple's first node within the depth bound: a tuple of two or more nodes
/// is connected when every member lies in the graph and was reached.
pub fn reaches(graph: &DataGraph, reached: &HashMap<NodeId, usize>, nodes: &[NodeId]) -> bool {
    nodes.len() <= 1
        || nodes.iter().all(|node| graph.dense(*node).is_some() && reached.contains_key(node))
}
