//! The precomputed connectivity oracle must agree with plain breadth-first
//! search — same `shortest_distance`, same path length, same `is_connected`
//! verdict — at **every** depth bound, including bounds beyond the hub-label
//! radius where the oracle is required to fall back to BFS.
//!
//! Three corpus shapes are exercised: Mondial-like (moderate IDREF webs
//! across documents), Google-Base-like (isolated single-item documents, the
//! centroid-tree labeling path), and a synthetic dense IDREF web that
//! cross-links every document into one large component (the adversarial case
//! for pruned landmark labeling).  On every shape the one-to-many form of the
//! query — a pinned source scanned against each target — must give the same
//! three-way agreement, pair for pair.  A final set of tests pins that the
//! labels coming out of the shard → merge lifecycle are identical to a
//! sequential build, independent of shard order.

use proptest::prelude::*;

use seda_datagen::{googlebase, mondial, GoogleBaseConfig, MondialConfig};
use seda_datagraph::{
    bfs_is_connected_with, bfs_shortest_distance_with, bfs_shortest_path_with, is_connected_with,
    pin, shortest_distance_with, shortest_path_with, DataGraph, GraphConfig, GraphShard,
    TraversalScratch, LABEL_RADIUS,
};
use seda_xmlstore::{parse_collection, Collection, DocId, NodeId};

/// Depth bounds straddling every regime of the oracle: trivial (0/1), well
/// inside the label radius, the searcher default (12), the radius itself, and
/// past the radius (where hub components must fall back to BFS).
fn depths() -> Vec<usize> {
    let r = LABEL_RADIUS as usize;
    vec![0, 1, 2, 5, 12, r, r + 4]
}

/// A deterministic spread of nodes across the collection's documents: the
/// root, a middle node and the last node of every `stride`-th document.
fn sample_nodes(collection: &Collection, stride: usize) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for (i, doc) in collection.documents().enumerate() {
        if i % stride.max(1) != 0 {
            continue;
        }
        let len = doc.len() as u32;
        nodes.push(NodeId::new(doc.id, 0));
        if len > 2 {
            nodes.push(NodeId::new(doc.id, len / 2));
        }
        if len > 1 {
            nodes.push(NodeId::new(doc.id, len - 1));
        }
    }
    nodes
}

/// A node of a document past the collection's last: outside every graph built
/// over it.
fn outside_node(graph: &DataGraph) -> NodeId {
    let mut doc = 0;
    while graph.dense(NodeId::new(DocId(doc), 0)).is_some() {
        doc += 1;
    }
    NodeId::new(DocId(doc), 0)
}

/// Asserts oracle == BFS for every node pair at every depth bound: same
/// distance — asked pair by pair and of a source pinned once per `a` — same
/// path existence and length, same pair connectivity.  `nodes` is extended by
/// one node outside the graph, which can be neither pinned nor reached.
fn assert_oracle_matches_bfs(graph: &DataGraph, nodes: &[NodeId]) -> Result<(), TestCaseError> {
    let mut oracle_scratch = TraversalScratch::new();
    let mut bfs_scratch = TraversalScratch::new();
    let mut pinned_scratch = TraversalScratch::new();
    let outside = outside_node(graph);
    prop_assert!(pin(graph, &mut pinned_scratch, outside).is_none());
    let nodes: Vec<NodeId> = nodes.iter().copied().chain([outside]).collect();
    let nodes = &nodes[..];
    for &depth in &depths() {
        for &a in nodes {
            let mut pinned = pin(graph, &mut pinned_scratch, a);
            prop_assert_eq!(pinned.is_some(), a != outside, "every node of the graph pins");
            for &b in nodes {
                let got = shortest_distance_with(graph, &mut oracle_scratch, a, b, depth);
                let want = bfs_shortest_distance_with(graph, &mut bfs_scratch, a, b, depth);
                prop_assert_eq!(
                    got,
                    want,
                    "distance diverges for {:?} -> {:?} at depth {}",
                    a,
                    b,
                    depth
                );
                if let Some(source) = pinned.as_mut() {
                    prop_assert_eq!(
                        source.distance_to(b, depth),
                        want,
                        "pinned distance diverges for {:?} -> {:?} at depth {}",
                        a,
                        b,
                        depth
                    );
                }
                let got_path = shortest_path_with(graph, &mut oracle_scratch, a, b, depth);
                let want_path = bfs_shortest_path_with(graph, &mut bfs_scratch, a, b, depth);
                prop_assert_eq!(
                    got_path.as_ref().map(Vec::len),
                    want_path.as_ref().map(Vec::len),
                    "path length diverges for {:?} -> {:?} at depth {}",
                    a,
                    b,
                    depth
                );
                // A returned path must actually end at the target.
                if let Some(path) = &got_path {
                    if let Some(last) = path.last() {
                        prop_assert_eq!(last.node, b);
                    }
                }
                let pair = [a, b];
                prop_assert_eq!(
                    is_connected_with(graph, &mut oracle_scratch, &pair, depth),
                    bfs_is_connected_with(graph, &mut bfs_scratch, &pair, depth),
                    "pair connectivity diverges for {:?} -> {:?} at depth {}",
                    a,
                    b,
                    depth
                );
            }
        }
        prop_assert!(pinned_scratch.verify().is_ok(), "a dropped source left entries behind");
        // Tuple connectivity over larger tuples, matching the top-k join's
        // star-shaped usage.
        for tuple in nodes.chunks(3).filter(|t| t.len() == 3) {
            prop_assert_eq!(
                is_connected_with(graph, &mut oracle_scratch, tuple, depth),
                bfs_is_connected_with(graph, &mut bfs_scratch, tuple, depth),
                "tuple connectivity diverges for {:?} at depth {}",
                tuple,
                depth
            );
        }
    }
    Ok(())
}

/// A dense synthetic IDREF web: `docs` documents of `per_doc` items, each
/// item cross-referencing two pseudo-randomly chosen items in other
/// documents.  Every document ends up in one component and the cross-link
/// density defeats tree-only shortcuts — the adversarial shape for the hub
/// labeling.
fn idref_web(docs: usize, per_doc: usize, stride: usize) -> Collection {
    let mut sources = Vec::new();
    for d in 0..docs {
        let mut xml = String::from("<hub>");
        for i in 0..per_doc {
            let d2 = (d * 7 + i * stride + 1) % docs;
            let i2 = (i + d + 1) % per_doc;
            let d3 = (d + i + stride) % docs;
            xml.push_str(&format!(
                r#"<item id="n{d}_{i}"><link to_idref="n{d2}_{i2}"/><link to_idref="n{d3}_{i}"/></item>"#
            ));
        }
        xml.push_str("</hub>");
        sources.push((format!("web{d}.xml"), xml));
    }
    parse_collection(sources.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .expect("idref web parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mondial-like corpora: cross-document IDREF edges produce multi-document
    /// components answered by hub labels; isolated documents take the
    /// centroid-tree path.
    #[test]
    fn oracle_matches_bfs_on_mondial(
        countries in 2usize..6,
        provinces in 1usize..6,
        cities in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let config = MondialConfig {
            countries,
            provinces,
            cities,
            seas: 2,
            rivers: 2,
            organizations: 2,
            features: 2,
            seed,
        };
        let collection = mondial::generate(&config).expect("generate mondial");
        let graph = DataGraph::build(&collection, &GraphConfig::default());
        let nodes = sample_nodes(&collection, 3);
        assert_oracle_matches_bfs(&graph, &nodes)?;
    }

    /// Google-Base-like corpora: no cross edges, every document is its own
    /// component — the pure centroid-tree labeling regime.
    #[test]
    fn oracle_matches_bfs_on_googlebase(
        items in 5usize..25,
        categories in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let config = GoogleBaseConfig { items, categories, attributes_per_category: 4, seed };
        let collection = googlebase::generate(&config).expect("generate googlebase");
        let graph = DataGraph::build(&collection, &GraphConfig::default());
        let nodes = sample_nodes(&collection, 4);
        assert_oracle_matches_bfs(&graph, &nodes)?;
    }

    /// Dense IDREF cross-link webs: one big component, high cross-edge
    /// density, distances that straddle the label radius.
    #[test]
    fn oracle_matches_bfs_on_dense_idref_webs(
        docs in 2usize..7,
        per_doc in 2usize..6,
        stride in 1usize..5,
    ) {
        let collection = idref_web(docs, per_doc, stride);
        let graph = DataGraph::build(&collection, &GraphConfig::default());
        let nodes = sample_nodes(&collection, 1);
        assert_oracle_matches_bfs(&graph, &nodes)?;
    }

    /// Labels coming out of the shard → merge lifecycle are identical to the
    /// sequential build, regardless of shard order.
    #[test]
    fn shard_merged_labels_match_sequential_build(
        docs in 2usize..7,
        per_doc in 2usize..6,
        reverse in 0u8..2,
    ) {
        let collection = idref_web(docs, per_doc, 2);
        let config = GraphConfig::default();
        let sequential = DataGraph::build(&collection, &config);
        let mut shards: Vec<GraphShard> = collection
            .documents()
            .map(|doc| DataGraph::build_shard(&collection, doc.id, &config))
            .collect();
        if reverse == 1 {
            shards.reverse();
        }
        let merged = DataGraph::merge(&collection, shards);
        prop_assert_eq!(merged.connectivity(), sequential.connectivity());
        prop_assert_eq!(&merged, &sequential);
    }
}

/// Non-random anchor: the fixed mondial workload of the benchmark reports,
/// plus its shard-merge determinism, outside proptest so a failure names no
/// seed.
#[test]
fn oracle_matches_bfs_on_fixed_mondial() {
    let collection = mondial::generate(&MondialConfig::small()).expect("generate mondial");
    let config = GraphConfig::default();
    let graph = DataGraph::build(&collection, &config);
    let nodes = sample_nodes(&collection, 9);

    let mut oracle_scratch = TraversalScratch::new();
    let mut bfs_scratch = TraversalScratch::new();
    let mut pinned_scratch = TraversalScratch::new();
    for &depth in &[2usize, 12, LABEL_RADIUS as usize + 4] {
        for &a in &nodes {
            let mut source = pin(&graph, &mut pinned_scratch, a).expect("a node of the graph pins");
            for &b in &nodes {
                let want = bfs_shortest_distance_with(&graph, &mut bfs_scratch, a, b, depth);
                assert_eq!(
                    shortest_distance_with(&graph, &mut oracle_scratch, a, b, depth),
                    want,
                    "distance diverges for {a:?} -> {b:?} at depth {depth}"
                );
                assert_eq!(
                    source.distance_to(b, depth),
                    want,
                    "pinned distance diverges for {a:?} -> {b:?} at depth {depth}"
                );
            }
        }
    }
    pinned_scratch.verify().expect("every source unpinned itself");

    let shards: Vec<GraphShard> = collection
        .documents()
        .map(|doc| DataGraph::build_shard(&collection, doc.id, &config))
        .collect();
    let merged = DataGraph::merge(&collection, shards);
    assert_eq!(merged.connectivity(), graph.connectivity());
    assert_eq!(merged, graph);
}
