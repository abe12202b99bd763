//! Independent judges of the one-pass substrate builds, on randomly
//! generated multi-document collections:
//!
//! * `DataGraph::build` against a nested-loop edge derivation that shares no
//!   code with it — IDs resolved last-wins, XLink `#fragment`s, value-key
//!   equality without self-edges — compared neighbour list by neighbour
//!   list, order included;
//! * `DataGuideSet::build` against a naive pairwise greedy merge — the first
//!   guide the document's paths are a subset of, else the best overlap at or
//!   above the threshold (earliest on ties), else a new guide;
//! * the engine built on two threads against the engine built on one.
//!
//! `NodeIndex::build` has its own judge, the map-based builder kept under
//! `crates/textindex/tests/reference/`.

use std::collections::BTreeSet;

use proptest::prelude::*;

use seda_core::{EngineConfig, SedaEngine};
use seda_datagraph::{DataGraph, EdgeKind, GraphConfig, ValueKeySpec};
use seda_dataguide::DataGuideSet;
use seda_olap::Registry;
use seda_xmlstore::{Collection, DocId, NodeId, NodeKind, PathId};

/// Builds a heterogeneous collection from a compact random description: each
/// document picks one of six shapes and gets keyword-bearing leaves.  Every
/// document defines an ID of its own and one of three IDs that repeat across
/// documents (so a later definition overrides an earlier one), references
/// an earlier document by IDREF, a shared ID (possibly never defined) by
/// `ref`, and an earlier document by an XLink carrying a `#fragment`.
fn random_collection(docs: &[(u8, String, String)]) -> Collection {
    let mut collection = Collection::new();
    for (i, (shape, word_a, word_b)) in docs.iter().enumerate() {
        let shape = shape % 6;
        collection
            .add_document(format!("doc{i}.xml"), |b| {
                b.start_element(&format!("shape{shape}"))?;
                b.attribute("id", &format!("node-{i}"))?;
                if i > 0 {
                    b.start_element("link")?;
                    b.attribute("target_idref", &format!("node-{}", i / 2))?;
                    b.end_element()?;
                }
                b.start_element("alias")?;
                b.attribute("id", &format!("shared-{}", word_a.len() % 3))?;
                b.end_element()?;
                b.start_element("see")?;
                b.attribute("ref", &format!("shared-{}", word_b.len() % 4))?;
                b.end_element()?;
                b.start_element("cite")?;
                b.attribute("href", &format!("doc{0}.xml#node-{0}", i / 3))?;
                b.end_element()?;
                b.leaf("title", word_a)?;
                b.leaf("kind", &format!("k{}", word_b.len() % 3))?;
                for f in 0..(shape + 1) {
                    b.leaf(&format!("field_{shape}_{f}"), word_b)?;
                }
                if shape % 2 == 0 {
                    b.start_element("nested")?;
                    b.leaf("inner", &format!("{word_a} {word_b}"))?;
                    b.end_element()?;
                }
                b.end_element()?;
                Ok(())
            })
            .expect("document builds");
    }
    collection
}

fn arb_docs() -> impl Strategy<Value = Vec<(u8, String, String)>> {
    proptest::collection::vec((0u8..6, "[a-z]{1,8}", "[a-z]{1,8}"), 1..16)
}

fn graph_config() -> GraphConfig {
    // Titles are rarely equal across shapes; kinds take three values, and a
    // spec whose two sides are one path pairs every node with itself.
    GraphConfig::with_value_keys(vec![
        ValueKeySpec::new("/shape0/title", "/shape2/title"),
        ValueKeySpec::new("/shape1/kind", "/shape3/kind"),
        ValueKeySpec::new("/shape2/kind", "/shape2/kind"),
    ])
}

/// Every node of the collection, in document order.
fn all_nodes(c: &Collection) -> Vec<NodeId> {
    c.documents().flat_map(|doc| doc.node_ids()).collect()
}

/// The cross edges Definition 2 asks for, derived by nested loops: reference
/// edges in document order, then each spec's value edges, foreign side
/// outer.
fn expected_cross_edges(c: &Collection, config: &GraphConfig) -> Vec<(NodeId, NodeId, EdgeKind)> {
    let nodes = all_nodes(c);
    let name = |n: NodeId| c.node_name(n).expect("a node of the collection").to_string();
    let owner = |n: NodeId| {
        let node = c.node(n).expect("a node of the collection");
        let text = node.text.clone();
        node.parent.zip(text).map(|(parent, text)| (NodeId::new(n.doc, parent), text))
    };
    let is_attribute = |n: NodeId| c.node(n).expect("a node").kind == NodeKind::Attribute;

    let mut edges = Vec::new();
    for &n in &nodes {
        if !is_attribute(n) {
            continue;
        }
        let attr = name(n);
        let kind = if attr.ends_with("_idref") || config.idref_attributes.contains(&attr) {
            EdgeKind::IdRef
        } else if config.xlink_attributes.contains(&attr) {
            EdgeKind::XLink
        } else {
            continue;
        };
        let Some((from, value)) = owner(n) else { continue };
        // An XLink value may carry a `#fragment`: the ID is what follows
        // the last `#`.
        let key = value.rfind('#').map_or(value.as_str(), |at| &value[at + 1..]).trim();
        // The last ID definition of the key in document order wins.
        let target = nodes.iter().rev().find_map(|&m| {
            if !is_attribute(m) || !config.id_attributes.contains(&name(m)) {
                return None;
            }
            owner(m).filter(|(_, id)| id.trim() == key).map(|(element, _)| element)
        });
        if let Some(to) = target {
            edges.push((from, to, kind));
        }
    }
    for spec in &config.value_keys {
        let on = |path: &str, n: NodeId| c.context_string(n).expect("a node") == path;
        for &from in nodes.iter().filter(|&&n| on(&spec.foreign_path, n)) {
            for &to in nodes.iter().filter(|&&n| on(&spec.primary_path, n)) {
                if from != to && c.content(from).ok() == c.content(to).ok() {
                    edges.push((from, to, EdgeKind::ValueBased));
                }
            }
        }
    }
    edges
}

/// A node's neighbours as the graph lists them: parent, children in
/// document order, then every cross edge touching it in edge order (an edge
/// is listed under its source, then under its target).
fn expected_neighbours(
    c: &Collection,
    n: NodeId,
    edges: &[(NodeId, NodeId, EdgeKind)],
) -> Vec<(NodeId, EdgeKind)> {
    let node = c.node(n).expect("a node of the collection");
    let mut out: Vec<(NodeId, EdgeKind)> = node
        .parent
        .iter()
        .chain(&node.children)
        .map(|&ordinal| (NodeId::new(n.doc, ordinal), EdgeKind::ParentChild))
        .collect();
    for &(from, to, kind) in edges {
        if from == n {
            out.push((to, kind));
        }
        if to == n {
            out.push((from, kind));
        }
    }
    out
}

/// Guides as `(paths, documents)`, by the paper's greedy merge done naively:
/// every comparison intersects two path sets.
fn expected_guides(c: &Collection, threshold: f64) -> Vec<(BTreeSet<PathId>, Vec<DocId>)> {
    let mut guides: Vec<(BTreeSet<PathId>, Vec<DocId>)> = Vec::new();
    for doc in c.documents() {
        let paths: BTreeSet<PathId> = doc.iter().map(|(_, node)| node.path).collect();
        if let Some(guide) = guides.iter_mut().find(|(g, _)| paths.is_subset(g)) {
            guide.1.push(doc.id);
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, (g, _)) in guides.iter().enumerate() {
            let common = paths.intersection(g).count() as f64;
            let overlap = if paths.is_empty() || g.is_empty() {
                0.0
            } else {
                (common / paths.len() as f64).min(common / g.len() as f64)
            };
            if overlap >= threshold && best.is_none_or(|(_, b)| overlap > b) {
                best = Some((i, overlap));
            }
        }
        match best {
            Some((i, _)) => {
                guides[i].0.extend(paths);
                guides[i].1.push(doc.id);
            }
            None => guides.push((paths, vec![doc.id])),
        }
    }
    guides
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `DataGraph::build` lists, node by node, exactly the neighbours the
    /// nested-loop derivation expects, in the same order.
    #[test]
    fn data_graph_build_matches_the_nested_loop_edges(docs in arb_docs()) {
        let c = random_collection(&docs);
        let config = graph_config();
        let graph = DataGraph::build(&c, &config);
        let edges = expected_cross_edges(&c, &config);
        prop_assert_eq!(graph.cross_edge_count(), edges.len());
        for n in all_nodes(&c) {
            prop_assert_eq!(graph.neighbors(n), expected_neighbours(&c, n, &edges), "{:?}", n);
        }
    }

    /// `DataGuideSet::build` forms the guides, the coverage and the
    /// assignment of the naive greedy merge, at thresholds from "merge
    /// everything" to "merge subsets only".
    #[test]
    fn dataguide_build_matches_the_naive_greedy_merge(
        docs in arb_docs(),
        pick in 0usize..5,
    ) {
        let threshold = [0.0, 0.2, 0.4, 0.6, 1.01][pick];
        let c = random_collection(&docs);
        let set = DataGuideSet::build(&c, threshold).unwrap();
        let expected = expected_guides(&c, threshold);
        prop_assert_eq!(set.len(), expected.len());
        for ((id, guide), (paths, documents)) in set.iter().zip(&expected) {
            prop_assert_eq!(guide.paths(), paths);
            prop_assert_eq!(guide.documents(), documents.as_slice());
            for &doc in documents {
                prop_assert_eq!(set.guide_of_document(doc), Some(id));
            }
        }
    }

    /// The full engine built in parallel answers queries identically to the
    /// sequential engine: same substrates, same context summaries, same
    /// dataguide statistics.
    #[test]
    fn parallel_engine_equals_sequential(docs in arb_docs(), threads in 2usize..6) {
        let c = random_collection(&docs);
        let sequential = SedaEngine::build(
            c.clone(),
            Registry::new(),
            EngineConfig { graph: graph_config(), ..EngineConfig::default() },
        )
        .unwrap();
        let parallel = SedaEngine::build(
            c,
            Registry::new(),
            EngineConfig { graph: graph_config(), parallelism: threads, ..EngineConfig::default() },
        )
        .unwrap();

        // Equivalence alone could hold for two equally-corrupt engines: both
        // variants must also pass the full structural audit.
        prop_assert!(sequential.verify().is_ok(), "sequential engine fails audit");
        prop_assert!(parallel.verify().is_ok(), "parallel engine fails audit");

        prop_assert_eq!(parallel.node_index(), sequential.node_index());
        prop_assert_eq!(parallel.context_index(), sequential.context_index());
        prop_assert_eq!(parallel.graph(), sequential.graph());
        prop_assert_eq!(parallel.guides(), sequential.guides());
        prop_assert_eq!(parallel.guide_links(), sequential.guide_links());
        prop_assert_eq!(parallel.dataguide_stats(), sequential.dataguide_stats());

        let query = seda_core::SedaQuery::parse("(title, *)").unwrap();
        let seq_summary = sequential.context_summary(&query);
        let par_summary = parallel.context_summary(&query);
        prop_assert_eq!(seq_summary.buckets.len(), par_summary.buckets.len());
        for (a, b) in seq_summary.buckets.iter().zip(par_summary.buckets.iter()) {
            prop_assert_eq!(&a.entries, &b.entries);
        }
    }
}
