//! # seda-datagraph
//!
//! The SEDA data graph (Definition 2 of the paper): XML element/attribute
//! nodes connected by parent/child, IDREF, XLink/XPointer and value-based
//! edges.  The crate builds the graph over a [`seda_xmlstore::Collection`],
//! answers distance queries (shortest paths, connectedness of result tuples,
//! exact up to [`MAX_DEPTH`] hops) by parent walks inside documents no cross
//! edge touches and, inside the documents cross edges touch, by precomputed
//! labels on their 2-core that every other node climbs to, and implements
//! the *compactness* measure the top-k scoring function uses.
//!
//! ```
//! use seda_datagraph::{DataGraph, GraphConfig};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("c.xml", r#"<country id="c1"><name>China</name></country>"#),
//!     ("s.xml", r#"<sea id="s1"><bordering country_idref="c1"/></sea>"#),
//! ]).unwrap();
//! let graph = DataGraph::build(&collection, &GraphConfig::default());
//! assert_eq!(graph.cross_edge_count(), 1);
//! ```

mod audit;
mod config;
mod connectivity;
mod graph;
mod traversal;

pub use config::{GraphConfig, ValueKeySpec};
pub use connectivity::{ConnectivityIndex, MAX_DEPTH};
pub use graph::{doc_component_builds_on_this_thread, DataGraph, Edge, EdgeKind};
pub use traversal::{
    compactness_with, is_connected_with, pin, shortest_distance_with, shortest_path_with, Hop,
    PinnedSource, TraversalScratch,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::config::GraphConfig;
    use crate::graph::DataGraph;
    use crate::traversal::{
        compactness_with, connecting_tree_size_with, is_connected_with, pin,
        shortest_distance_with, TraversalScratch,
    };
    use seda_xmlstore::{Collection, NodeId};

    /// Builds a single-document collection shaped like a shallow tree of
    /// `width` branches each with `depth` nested children.
    fn tree_collection(width: u8, depth: u8) -> Collection {
        let mut c = Collection::new();
        c.add_document("t.xml", |b| {
            b.start_element("root")?;
            for w in 0..width.max(1) {
                b.start_element(&format!("branch{w}"))?;
                for d in 0..depth.max(1) {
                    b.start_element(&format!("level{d}"))?;
                }
                b.leaf("leaf", &format!("value {w}"))?;
                for _ in 0..depth.max(1) {
                    b.end_element()?;
                }
                b.end_element()?;
            }
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Within a single document every pair of nodes is connected, the
        /// distance is symmetric, and compactness is positive.
        #[test]
        fn tree_nodes_are_always_connected(width in 1u8..4, depth in 1u8..4, a in 0u32..10, b in 0u32..10) {
            let c = tree_collection(width, depth);
            let g = DataGraph::build(&c, &GraphConfig::default());
            let doc = c.documents().next().unwrap();
            let n = doc.len() as u32;
            let na = NodeId::new(doc.id, a % n);
            let nb = NodeId::new(doc.id, b % n);
            let limit = doc.len();
            let s = &mut TraversalScratch::new();
            let d_ab = shortest_distance_with(&g, s, na, nb, limit);
            let d_ba = shortest_distance_with(&g, s, nb, na, limit);
            prop_assert!(d_ab.is_some());
            prop_assert_eq!(d_ab, d_ba);
            prop_assert!(is_connected_with(&g, s, &[na, nb], limit));
            prop_assert!(compactness_with(&g, s, &[na, nb], limit) > 0.0);
        }

        /// One pinned source answers every target of its document like the
        /// pairwise query, at bounds inside and outside the tree's depth, and
        /// leaves the scratch clean.
        #[test]
        fn a_pinned_source_matches_the_pairwise_distance(width in 1u8..4, depth in 1u8..4, a in 0u32..10, bound in 0usize..12) {
            let c = tree_collection(width, depth);
            let g = DataGraph::build(&c, &GraphConfig::default());
            let doc = c.documents().next().unwrap();
            let na = NodeId::new(doc.id, a % doc.len() as u32);
            let (mut scratch, s) = (TraversalScratch::new(), &mut TraversalScratch::new());
            {
                let mut source = pin(&g, &mut scratch, na).expect("a node of the graph pins");
                for nb in doc.node_ids() {
                    prop_assert_eq!(
                        source.distance_to(nb, bound),
                        shortest_distance_with(&g, s, na, nb, bound)
                    );
                }
            }
            prop_assert!(scratch.verify().is_ok());
        }

        /// The connecting-tree size of a pair equals the pair's shortest-path
        /// distance, and adding a node never shrinks the connecting tree.
        #[test]
        fn connecting_tree_is_monotone(width in 1u8..4, depth in 1u8..4, a in 0u32..10, b in 0u32..10, extra in 0u32..10) {
            let c = tree_collection(width, depth);
            let g = DataGraph::build(&c, &GraphConfig::default());
            let doc = c.documents().next().unwrap();
            let n = doc.len() as u32;
            let limit = doc.len();
            let na = NodeId::new(doc.id, a % n);
            let nb = NodeId::new(doc.id, b % n);
            let nc = NodeId::new(doc.id, extra % n);
            let s = &mut TraversalScratch::new();
            let pair = connecting_tree_size_with(&g, s, &[na, nb], limit).unwrap();
            let dist = shortest_distance_with(&g, s, na, nb, limit).unwrap();
            prop_assert_eq!(pair, dist);
            let triple = connecting_tree_size_with(&g, s, &[na, nb, nc], limit).unwrap();
            prop_assert!(triple >= pair);
        }
    }
}
