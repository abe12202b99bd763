//! The connectivity oracle must agree with plain breadth-first search —
//! same `shortest_distance`, same path length, same `is_connected` verdict —
//! at **every** depth bound, read as the oracle documents it: a bound past
//! `MAX_DEPTH` (16 hops, where core labelling stops and a climb or a parent
//! walk gives up) is clamped to it.  Bounds below, at and far past
//! `MAX_DEPTH` are judged.  The oracle answers every bound alone — a parent
//! walk inside a document no cross edge touches; inside the documents cross
//! edges touch, labels on their 2-core and a climb to it from every other
//! node; the BFS it is judged against lives in `tests/reference/` and shares
//! no code with it.
//!
//! The corpus shapes: Mondial-like (moderate IDREF webs across documents),
//! Google-Base-like (isolated single-item documents, all parent walks),
//! RecipeML-like (deep regular documents, all parent walks), a fixed tree
//! deeper than `MAX_DEPTH` whose two deepest leaves lie 42 hops apart, a
//! synthetic dense IDREF web that cross-links every document into one large
//! component (the adversarial case for pruned landmark labeling), tree
//! documents interleaved with such a web (both sides of the dispatch in one
//! graph), a long IDREF chain whose diameter is several times `MAX_DEPTH`
//! (a path, so it peels away entirely and every pair is a climb that must
//! stop at `MAX_DEPTH`), a document linked to a web only from deep inside
//! (its root hangs from its child, its chain from a cross neighbour), two
//! documents joined by one IDREF (a hub component with no core) and a web
//! with a doubled edge (which keeps both of its ends in the core).  On every
//! shape the one-to-many form of the query — a pinned source asked about
//! each target — must give the same agreement, pair for pair, and every
//! returned path must be a walk over the graph's edges.  A final set of
//! tests pins that a ring's labels grow linearly with its length, that
//! Mondial's labels stay on its core, and that corpora without cross edges
//! carry no labels at all.

mod reference;

use proptest::prelude::*;

use seda_datagen::{
    googlebase, mondial, recipeml, Dataset, GoogleBaseConfig, MondialConfig, RecipeMlConfig,
};
use seda_datagraph::{
    is_connected_with, pin, shortest_distance_with, shortest_path_with, DataGraph, GraphConfig,
    TraversalScratch, MAX_DEPTH,
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
    collection_of(&idref_web_sources(docs, per_doc, stride))
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
    collection_of(&sources)
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
/// next, three hops from root to root — one hub component whose diameter
/// grows with `docs`.  It is a tree, so the peel takes every node of it.
fn idref_chain(docs: usize) -> Collection {
    idref_links(docs, false)
}

/// [`idref_chain`] closed into a ring: the last document references the
/// first, so every link stays in the 2-core.
fn idref_ring(docs: usize) -> Collection {
    idref_links(docs, true)
}

fn idref_links(docs: usize, ring: bool) -> Collection {
    let sources: Vec<(String, String)> = (0..docs)
        .map(|d| {
            let next = if d + 1 < docs || ring {
                format!(r#"<next to_idref="c{}"/>"#, (d + 1) % docs)
            } else {
                String::new()
            };
            (format!("chain{d}.xml"), format!(r#"<link id="c{d}"><item>{next}</item></link>"#))
        })
        .collect();
    collection_of(&sources)
}

/// Parses `(name, xml)` sources into a collection.
fn collection_of(sources: &[(String, String)]) -> Collection {
    parse_collection(sources.iter().map(|(n, x)| (n.as_str(), x.as_str()))).expect("corpus parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mondial-like corpora: cross-document IDREF edges produce multi-document
    /// components answered by core labels and climbs; documents no edge
    /// touches are answered by parent walks.
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
}

/// The all-fringe case: a 30-document chain whose ends lie 87 hops apart
/// peels away entirely, so every pair is a climb, and the climb must stop at
/// `MAX_DEPTH` — the pairs farther apart unreachable under every bound.
#[test]
fn oracle_matches_bfs_on_a_long_idref_chain() {
    let collection = idref_chain(30);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    assert_eq!(graph.doc_component_count(), 1, "the chain is one component");
    assert!(
        (0..graph.node_count() as u32).all(|v| graph.label_range(v) == (0, 0)),
        "a chain has no core, so nothing is labelled"
    );
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

/// A document of a web whose only link is one reference from deep inside
/// it: its root and its other branches hang from the referencing chain
/// (the root from its child, not from an XML parent), and the chain hangs
/// from the cross neighbour it references.
#[test]
fn oracle_matches_bfs_on_a_document_linked_from_deep_inside() {
    let mut sources = idref_web_sources(3, 2, 1);
    sources.push((
        "deep.xml".to_string(),
        r#"<outer><side><leaf>x</leaf></side><a><b><c><ref to_idref="n0_0"/></c></b></a></outer>"#
            .to_string(),
    ));
    let collection = collection_of(&sources);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    let deep = collection.documents().last().expect("the deep document").id;
    let (outer, refs) = (NodeId::new(deep, 0), NodeId::new(deep, 6));
    let depth = |node| graph.peel_depth(graph.dense(node).expect("a node of the graph"));
    // `ref` hangs from the web item it references, `outer` four steps up.
    assert_eq!((depth(refs), depth(outer)), (1, 5));
    assert_oracle_matches_bfs(&graph, &all_nodes(&collection)).expect("oracle == BFS");
}

/// Two documents joined by a single IDREF: a hub component with no core, so
/// every node of it attaches to one root and every pair is a climb.
#[test]
fn oracle_matches_bfs_on_a_hub_component_without_a_core() {
    let collection = collection_of(&[
        (
            "a.xml".to_string(),
            r#"<country id="c1"><name>A</name><province><city>x</city></province></country>"#
                .to_string(),
        ),
        (
            "b.xml".to_string(),
            r#"<sea><name>S</name><bordering country_idref="c1"/></sea>"#.to_string(),
        ),
    ]);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    assert_eq!(graph.cross_edge_count(), 1);
    assert!((0..graph.node_count() as u32).all(|v| graph.label_range(v) == (0, 0)));
    assert_oracle_matches_bfs(&graph, &all_nodes(&collection)).expect("oracle == BFS");
}

/// A web with a doubled edge: a link element naming one item twice holds
/// itself in the core by the two entries alone, while its document's root
/// hangs from it.
#[test]
fn oracle_matches_bfs_on_a_web_with_a_doubled_edge() {
    let mut sources = idref_web_sources(3, 2, 1);
    sources.push((
        "pair.xml".to_string(),
        r#"<pair><link to_idref="n0_0" again_idref="n0_0"/><leaf>x</leaf></pair>"#.to_string(),
    ));
    let collection = collection_of(&sources);
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    let pair = collection.documents().last().expect("the pair document").id;
    let (root, link) = (NodeId::new(pair, 0), NodeId::new(pair, 1));
    let dense = |node| graph.dense(node).expect("a node of the graph");
    assert_eq!(graph.peel_depth(dense(link)), 0, "both ends of a doubled edge stay");
    assert!(graph.label_range(dense(link)).1 > graph.label_range(dense(link)).0);
    assert_eq!(graph.peel_depth(dense(root)), 1, "the root hangs from its link");
    assert_oracle_matches_bfs(&graph, &all_nodes(&collection)).expect("oracle == BFS");
}

/// The cut keeps a ring's labels linear in its length: the links of a ring
/// all stay in the 2-core and share one degree, so the hubs come in ring
/// order and an uncut BFS would label every node after its hub (quadratic
/// entries, a cubic build).  The rings are short enough (480 core nodes,
/// 240 hops around at most) that the one-byte label distances could hold an
/// uncut pass: with the cut lifted, 160 documents take 3.9× the bytes of 80.
#[test]
fn chain_labels_grow_linearly() {
    let label_bytes = |docs| {
        DataGraph::build(&idref_ring(docs), &GraphConfig::default()).connectivity().label_bytes()
    };
    let (short, long) = (label_bytes(80), label_bytes(160));
    assert!(long <= short * 21 / 10, "80 documents: {short} label bytes, 160: {long}");
}

/// Mondial's labels stay on its 2-core: on `MondialConfig::small()` the
/// oracle holds 29,661 bytes, against 125,162 when every node of its hub
/// documents carried a label of its own — at most a quarter.
#[test]
fn mondial_labels_stay_on_the_core() {
    let collection = mondial::generate(&MondialConfig::small()).expect("generate mondial");
    let graph = DataGraph::build(&collection, &GraphConfig::default());
    let bytes = graph.connectivity().label_bytes();
    assert!(bytes <= 125_162 / 4, "{bytes} label bytes on the small Mondial corpus");
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
/// outside proptest so a failure names no seed.
#[test]
fn oracle_matches_bfs_on_fixed_mondial() {
    let collection = mondial::generate(&MondialConfig::small()).expect("generate mondial");
    let graph = DataGraph::build(&collection, &GraphConfig::default());
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
}
