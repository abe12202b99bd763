//! The connectivity oracle must agree with plain breadth-first search —
//! same `shortest_distance`, same path length, same `is_connected` verdict —
//! at **every** depth bound, read as the oracle documents it: a bound past
//! `MAX_DEPTH` (16 hops, where hub labelling stops and a parent walk gives
//! up) is clamped to it.  Bounds below, at and far past `MAX_DEPTH` are
//! judged.  The oracle answers every bound alone — a parent walk inside a
//! document no cross edge touches, a hub-label intersection inside the
//! documents cross edges touch; the BFS it is judged against lives in
//! `tests/reference/` and shares no code with it.
//!
//! The corpus shapes: Mondial-like (moderate IDREF webs across documents),
//! Google-Base-like (isolated single-item documents, all parent walks),
//! RecipeML-like (deep regular documents, all parent walks), a fixed tree
//! deeper than `MAX_DEPTH` whose two deepest leaves lie 42 hops apart, a
//! synthetic dense IDREF web that cross-links every document into one large
//! component (the adversarial case for pruned landmark labeling), tree
//! documents interleaved with such a web (both sides of the dispatch in one
//! graph), and a long IDREF chain whose diameter is several times
//! `MAX_DEPTH` (the case the hub BFS's cut exists for).  On every shape the
//! one-to-many form of the query — a pinned source asked about each target —
//! must give the same agreement, pair for pair, and every returned path must
//! be a walk over the graph's edges.  A final set of tests pins that the
//! labels coming out of the shard → merge lifecycle are identical to a
//! sequential build, independent of shard order, that the chain's labels
//! grow linearly with its length, and that corpora without cross edges carry
//! no labels at all.

mod reference;

use proptest::prelude::*;

use seda_datagen::{
    googlebase, mondial, recipeml, Dataset, GoogleBaseConfig, MondialConfig, RecipeMlConfig,
};
use seda_datagraph::{
    is_connected_with, pin, shortest_distance_with, shortest_path_with, DataGraph, GraphConfig,
    GraphShard, TraversalScratch, MAX_DEPTH,
};
use seda_xmlstore::{parse_collection, Collection, DocId, NodeId};

/// Depth bounds straddling every regime: trivial (0/1), short, the searcher
/// default (12), both sides of `MAX_DEPTH` (16), and far past it.
const DEPTHS: [usize; 9] = [0, 1, 2, 5, 12, 16, 17, 40, 100];

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

/// Asserts oracle == BFS for every node pair at every depth bound (the BFS
/// bounded at `depth.min(MAX_DEPTH)`, the oracle's documented clamp): same
/// distance — asked pair by pair and of a source pinned once per `a` — same
/// path existence and length (each returned path a walk over the graph's
/// edges), same pair and tuple connectivity.  `nodes` is extended by one node
/// outside the graph, which can be neither pinned nor reached.
fn assert_oracle_matches_bfs(graph: &DataGraph, nodes: &[NodeId]) -> Result<(), TestCaseError> {
    let mut oracle_scratch = TraversalScratch::new();
    let mut pinned_scratch = TraversalScratch::new();
    let outside = outside_node(graph);
    prop_assert!(pin(graph, &mut pinned_scratch, outside).is_none());
    let nodes: Vec<NodeId> = nodes.iter().copied().chain([outside]).collect();
    let nodes = &nodes[..];
    for depth in DEPTHS {
        let bound = depth.min(MAX_DEPTH);
        for &a in nodes {
            let reached = reference::distances(graph, a, bound);
            let mut pinned = pin(graph, &mut pinned_scratch, a);
            prop_assert_eq!(pinned.is_some(), a != outside, "every node of the graph pins");
            for &b in nodes {
                let want = reached.get(&b).copied();
                let got = shortest_distance_with(graph, &mut oracle_scratch, a, b, depth);
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
                let path = shortest_path_with(graph, &mut oracle_scratch, a, b, depth);
                prop_assert_eq!(
                    path.as_ref().map(Vec::len),
                    want,
                    "path length diverges for {:?} -> {:?} at depth {}",
                    a,
                    b,
                    depth
                );
                // A returned path must be a walk from `a` that ends at `b`.
                let mut at = a;
                for hop in path.iter().flatten() {
                    prop_assert!(graph.neighbors(at).contains(&(hop.node, hop.kind)));
                    at = hop.node;
                }
                prop_assert!(path.is_none() || at == b, "the path of {:?} ends at {:?}", b, at);
                let pair = [a, b];
                prop_assert_eq!(
                    is_connected_with(graph, &mut oracle_scratch, &pair, depth),
                    reference::reaches(graph, &reached, &pair),
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
                reference::reaches(graph, &reference::distances(graph, tuple[0], bound), tuple),
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
    let sources = idref_web_sources(docs, per_doc, stride);
    parse_collection(sources.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .expect("idref web parses")
}

/// The `(name, xml)` sources of [`idref_web`].
fn idref_web_sources(docs: usize, per_doc: usize, stride: usize) -> Vec<(String, String)> {
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
    sources
}

/// Tree documents interleaved with the documents of a small IDREF web, so
/// that tree documents sit between hub documents and both sides of the
/// dispatch answer in one graph.
fn trees_around_a_web() -> Collection {
    let mut sources = Vec::new();
    for (d, web) in idref_web_sources(4, 3, 1).into_iter().enumerate() {
        let tree = format!(
            "<item><title>t{d}</title><offer><price><amount>{d}</amount></price></offer></item>"
        );
        sources.push((format!("tree{d}.xml"), tree));
        sources.push(web);
    }
    sources.push(("tree4.xml".to_string(), "<item><title>last</title></item>".to_string()));
    parse_collection(sources.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .expect("mixed corpus parses")
}

/// One document, two branches of `depth` nested elements under its root,
/// each element with a leaf sibling before its child: deeper than
/// `MAX_DEPTH`, with siblings at every level, and its two deepest leaves
/// `2 * (depth + 1)` hops apart.
fn deep_tree(depth: usize) -> Collection {
    let mut xml = String::from("<root>");
    for branch in ["left", "right"] {
        for level in 0..depth {
            xml.push_str(&format!("<{branch}><leaf>{level}</leaf>"));
        }
        for _ in 0..depth {
            xml.push_str(&format!("</{branch}>"));
        }
    }
    xml.push_str("</root>");
    parse_collection(vec![("deep.xml", xml.as_str())]).expect("deep tree parses")
}

/// Every node of every document.
fn all_nodes(collection: &Collection) -> Vec<NodeId> {
    collection.documents().flat_map(|doc| doc.node_ids()).collect()
}

/// A long IDREF chain: `docs` one-item documents, each referencing the
/// next, three hops from root to root — one hub-labelled component whose
/// diameter grows with `docs`.
fn idref_chain(docs: usize) -> Collection {
    let sources: Vec<(String, String)> = (0..docs)
        .map(|d| {
            let next = if d + 1 < docs {
                format!(r#"<next to_idref="c{}"/>"#, d + 1)
            } else {
                String::new()
            };
            (format!("chain{d}.xml"), format!(r#"<link id="c{d}"><item>{next}</item></link>"#))
        })
        .collect();
    parse_collection(sources.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .expect("idref chain parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mondial-like corpora: cross-document IDREF edges produce multi-document
    /// components answered by hub labels; documents no edge touches are
    /// answered by parent walks.
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
    /// component — parent walks only.
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

    /// RecipeML-like corpora: deep regular documents, no cross edges —
    /// parent walks of many steps.  Every node of the first document is
    /// judged against every other, beside a spread over the rest.
    #[test]
    fn oracle_matches_bfs_on_recipeml(
        recipes in 3usize..12,
        seed in 0u64..1_000,
    ) {
        let config = RecipeMlConfig { recipes, menu_percent: 30, nutrition_percent: 30, seed };
        let collection = recipeml::generate(&config).expect("generate recipeml");
        let graph = DataGraph::build(&collection, &GraphConfig::default());
        let mut nodes: Vec<NodeId> =
            collection.documents().next().expect("a recipe").node_ids().collect();
        nodes.extend(sample_nodes(&collection, 2));
        assert_oracle_matches_bfs(&graph, &nodes)?;
    }

    /// Dense IDREF cross-link webs: one big component, high cross-edge
    /// density.
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

/// Hub labels cut at `MAX_DEPTH`: a 30-document chain whose ends lie 87 hops
/// apart, every sampled pair judged at every depth bound — the pairs farther
/// apart than `MAX_DEPTH` unreachable under all of them.
#[test]
fn oracle_matches_bfs_on_a_long_idref_chain() {
    let collection = idref_chain(30);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    assert_eq!(graph.doc_component_count(), 1, "the chain is one component");
    let (first, last) = (NodeId::new(DocId(0), 0), NodeId::new(DocId(29), 0));
    assert_eq!(reference::distances(&graph, first, usize::MAX).get(&last), Some(&87));
    assert_oracle_matches_bfs(&graph, &sample_nodes(&collection, 1)).expect("oracle == BFS");
}

/// A fixed tree deeper than `MAX_DEPTH`, siblings at every level, its ends
/// 42 hops apart: every pair of its nodes judged at every depth bound.
#[test]
fn oracle_matches_bfs_on_a_deep_tree() {
    let collection = deep_tree(20);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    let last_leaf = |branch: &str| {
        let doc = collection.documents().next().expect("one document");
        let path = format!("/root{}/leaf", format!("/{branch}").repeat(20));
        let path = collection.paths().get_str(collection.symbols(), &path).expect("deepest leaf");
        NodeId::new(doc.id, *doc.nodes_with_path(path).first().expect("one deepest leaf"))
    };
    let (left, right) = (last_leaf("left"), last_leaf("right"));
    assert_eq!(reference::distances(&graph, left, usize::MAX).get(&right), Some(&42));
    assert_oracle_matches_bfs(&graph, &all_nodes(&collection)).expect("oracle == BFS");
}

/// Tree documents and a hub component in one graph, tree documents between
/// hub documents: both sides of the dispatch judged together.
#[test]
fn oracle_matches_bfs_on_trees_around_a_web() {
    let collection = trees_around_a_web();
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    assert_eq!(graph.doc_component_count(), 6, "five trees and one web");
    assert_oracle_matches_bfs(&graph, &all_nodes(&collection)).expect("oracle == BFS");
}

/// The cut keeps a chain's labels linear in its length: the links of a chain
/// share one degree, so the hubs come in chain order and an uncut BFS would
/// label every node after its hub (quadratic entries, a cubic build).
#[test]
fn chain_labels_grow_linearly() {
    let label_bytes = |docs| {
        DataGraph::build(&idref_chain(docs), &GraphConfig::default()).connectivity().label_bytes()
    };
    let (short, long) = (label_bytes(200), label_bytes(400));
    assert!(long <= short * 21 / 10, "200 documents: {short} label bytes, 400: {long}");
}

/// Documents no cross edge touches carry no labels: one byte a document,
/// the bit that sends their pairs to a parent walk.
#[test]
fn tree_corpora_carry_no_labels() {
    for dataset in [Dataset::GoogleBase, Dataset::RecipeMl, Dataset::WorldFactbook] {
        let collection = dataset.generate_small().expect("datagen");
        let graph = DataGraph::build(&collection, &GraphConfig::default());
        assert_eq!(graph.cross_edge_count(), 0, "{}", dataset.name());
        let bytes = graph.connectivity().label_bytes();
        assert!(
            bytes <= collection.len(),
            "{}: {bytes} label bytes for {} documents",
            dataset.name(),
            collection.len()
        );
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
    let mut pinned_scratch = TraversalScratch::new();
    for depth in DEPTHS {
        for &a in &nodes {
            let reached = reference::distances(&graph, a, depth.min(MAX_DEPTH));
            let mut source = pin(&graph, &mut pinned_scratch, a).expect("a node of the graph pins");
            for &b in &nodes {
                let want = reached.get(&b).copied();
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
