//! Experiment A2: false-positive connections (Sec. 6.1).  Dataguide-level
//! connections that have no instantiation in the query result arise from (a)
//! keyword restrictions and (b) overlap merging; "the higher the overlap
//! threshold, the fewer the false positive connections".
//!
//! The engine runs only instance-level discovery
//! (`seda_dataguide::discover_connections`); the summary-level connections
//! this experiment compares it with live here, beside their only judge.

use std::collections::HashSet;

use seda_core::{EngineConfig, SedaEngine, SedaQuery, SedaRequest};
use seda_datagen::{factbook, FactbookConfig};
use seda_datagraph::{DataGraph, EdgeKind, GraphConfig, TraversalScratch};
use seda_dataguide::{discover_connections, Connection, DataGuideSet, GuideId};
use seda_olap::Registry;
use seda_xmlstore::{parse_collection, Collection, NodeId, PathId};

/// A connection computed purely from the dataguide summary.
struct GuideConnection {
    /// Number of edges on the shortest summary-level connection.
    length: usize,
    /// Whether the connection crosses guides via an inter-guide link.
    crosses_guides: bool,
}

/// A link between two dataguides, derived from a non-tree edge of the data
/// graph (IDREF / XLink / value-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GuideLink {
    /// Guide and context of the source endpoint.
    from: (GuideId, PathId),
    /// Guide and context of the target endpoint.
    to: (GuideId, PathId),
    /// Kind of the underlying edge.
    kind: EdgeKind,
}

/// Derives inter-dataguide links from the materialised non-tree edges of the
/// data graph ("a set of links between the dataguides corresponding to the
/// external edges between documents in G").
fn guide_links(
    collection: &Collection,
    graph: &DataGraph,
    guides: &DataGuideSet,
) -> Vec<GuideLink> {
    let mut links = Vec::new();
    let mut seen = HashSet::new();
    for edge in graph.edges() {
        let (Ok(from_path), Ok(to_path)) =
            (collection.context(edge.from), collection.context(edge.to))
        else {
            continue;
        };
        let (Some(from_guide), Some(to_guide)) =
            (guides.guide_of_document(edge.from.doc), guides.guide_of_document(edge.to.doc))
        else {
            continue;
        };
        let key = (from_guide, from_path, to_guide, to_path, edge.kind);
        if seen.insert(key) {
            links.push(GuideLink {
                from: (from_guide, from_path),
                to: (to_guide, to_path),
                kind: edge.kind,
            });
        }
    }
    links
}

/// All guides containing `path`, in ascending guide order.
fn guides_with_path(guides: &DataGuideSet, path: PathId) -> Vec<GuideId> {
    guides.iter().filter(|(_, guide)| guide.contains(path)).map(|(id, _)| id).collect()
}

/// Distance between two paths within one dataguide, i.e. the tree distance in
/// the guide's path trie (`depth(a) + depth(b) - 2 * |common prefix|`).
fn intra_guide_distance(collection: &Collection, a: PathId, b: PathId) -> usize {
    let pa = collection.paths().resolve(a);
    let pb = collection.paths().resolve(b);
    let common = pa.steps().iter().zip(pb.steps().iter()).take_while(|(x, y)| x == y).count();
    pa.len() + pb.len() - 2 * common
}

/// Shortest summary-level connection between two contexts, using the dataguide
/// tries plus at most one inter-guide link ("if there are multiple paths
/// between two dataguide nodes, the algorithm chooses the shortest").
fn guide_connection(
    collection: &Collection,
    guides: &DataGuideSet,
    links: &[GuideLink],
    from_path: PathId,
    to_path: PathId,
) -> Option<GuideConnection> {
    let from_guides = guides_with_path(guides, from_path);
    let to_guides = guides_with_path(guides, to_path);
    if from_guides.is_empty() || to_guides.is_empty() {
        return None;
    }

    // Intra-guide connection when some guide contains both paths.
    let mut best: Option<GuideConnection> = None;
    for &g in &from_guides {
        if to_guides.contains(&g) {
            let length = intra_guide_distance(collection, from_path, to_path);
            let candidate = GuideConnection { length, crosses_guides: false };
            if best.as_ref().map(|b| candidate.length < b.length).unwrap_or(true) {
                best = Some(candidate);
            }
        }
    }

    // Cross-guide connection via one link.
    for link in links {
        let (lg, lp) = link.from;
        let (rg, rp) = link.to;
        // Try both orientations of the link.
        for ((g1, p1), (g2, p2)) in [((lg, lp), (rg, rp)), ((rg, rp), (lg, lp))] {
            if from_guides.contains(&g1)
                && guides.guide(g1).contains(from_path)
                && guides.guide(g1).contains(p1)
                && to_guides.contains(&g2)
                && guides.guide(g2).contains(to_path)
                && guides.guide(g2).contains(p2)
            {
                let length = intra_guide_distance(collection, from_path, p1)
                    + 1
                    + intra_guide_distance(collection, p2, to_path);
                let candidate = GuideConnection {
                    length,
                    crosses_guides: g1 != g2 || p1 != from_path || p2 != to_path,
                };
                if best.as_ref().map(|b| candidate.length < b.length).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
        }
    }
    best
}

/// Dataguide-level connections between `path_pairs` that are **not**
/// instantiated by any of the given result tuples — the false positives of
/// Sec. 6.1.  Returns `(false_positives, total_guide_connections)`.
fn false_positive_connections(
    collection: &Collection,
    guides: &DataGuideSet,
    links: &[GuideLink],
    instantiated: &[Connection],
    path_pairs: &[(PathId, PathId)],
) -> (usize, usize) {
    let mut false_positives = 0usize;
    let mut total = 0usize;
    for &(a, b) in path_pairs {
        if guide_connection(collection, guides, links, a, b).is_some() {
            total += 1;
            let instantiated_pair = instantiated.iter().any(|c| {
                (c.from_path == a && c.to_path == b) || (c.from_path == b && c.to_path == a)
            });
            if !instantiated_pair {
                false_positives += 1;
            }
        }
    }
    (false_positives, total)
}

fn setup() -> (SedaEngine, Vec<(PathId, PathId)>, Vec<Connection>) {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap();
    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();
    let request = SedaRequest::builder().top_k(15).query(query.clone()).build();
    let response = engine.reader().execute(&request).unwrap();
    let topk = response.top_k().unwrap();
    let instantiated = discover_connections(
        engine.collection(),
        engine.graph(),
        &topk.node_tuples(),
        12,
        &mut TraversalScratch::new(),
        |_| true,
    );

    // Candidate pairs: trade_country x percentage contexts plus a pair that
    // the keyword restriction rules out (name x refugees origin).
    let c = engine.collection();
    let summary = engine.context_summary(&query);
    let mut pairs = Vec::new();
    for a in summary.buckets[1].paths() {
        for b in summary.buckets[2].paths() {
            pairs.push((a, b));
        }
    }
    if let (Some(name), Some(refugees)) = (
        c.paths().get_str(c.symbols(), "/country/name"),
        c.paths().get_str(c.symbols(), "/country/transnational_issues/refugees/country_of_origin"),
    ) {
        pairs.push((name, refugees));
    }
    (engine, pairs, instantiated)
}

/// The engine's collection merged into dataguides at `threshold`, with the
/// links the data graph draws between them.  The engine keeps neither: they
/// are built here, for the experiment.
fn guides_and_links(engine: &SedaEngine, threshold: f64) -> (DataGuideSet, Vec<GuideLink>) {
    let guides = DataGuideSet::build(engine.collection(), threshold).unwrap();
    let links = guide_links(engine.collection(), engine.graph(), &guides);
    (guides, links)
}

#[test]
fn false_positives_exist_and_are_a_subset_of_guide_connections() {
    let (engine, pairs, instantiated) = setup();
    let (guides, links) = guides_and_links(&engine, engine.config().dataguide_threshold);
    let (fp, total) =
        false_positive_connections(engine.collection(), &guides, &links, &instantiated, &pairs);
    assert!(total >= 1, "the dataguides connect the candidate pairs");
    assert!(fp <= total);
    assert!(fp >= 1, "cross import/export pairs and the refugees pair are never instantiated");
}

#[test]
fn higher_thresholds_do_not_increase_false_positives() {
    let (engine, pairs, instantiated) = setup();
    let mut previous = usize::MAX;
    for threshold in [0.1, 0.4, 0.9] {
        let (guides, links) = guides_and_links(&engine, threshold);
        let (fp, _total) =
            false_positive_connections(engine.collection(), &guides, &links, &instantiated, &pairs);
        assert!(
            fp <= previous,
            "false positives must not increase with the threshold ({previous} -> {fp} at {threshold})"
        );
        previous = fp;
    }
}

#[test]
fn instantiated_connections_are_never_false_positives() {
    let (engine, _, instantiated) = setup();
    let collection = engine.collection();
    let (guides, links) = guides_and_links(&engine, engine.config().dataguide_threshold);
    let (guides, links) = (&guides, links.as_slice());
    for connection in &instantiated {
        let pair = [(connection.from_path, connection.to_path)];
        let (fp, total) =
            false_positive_connections(collection, guides, links, &instantiated, &pair);
        assert_eq!(fp, 0, "an instantiated connection cannot be a false positive");
        // The dataguide summary knows about the connection too (it may route
        // it differently, but it must exist).
        if total == 1 {
            assert!(guide_connection(
                collection,
                guides,
                links,
                connection.from_path,
                connection.to_path
            )
            .is_some());
        }
    }
}

/// Two documents: a country with two import partners, and a sea whose
/// `bordering` element links to the country by IDREF.
fn small_setup() -> (Collection, DataGraph, DataGuideSet) {
    let c = parse_collection(vec![
        (
            "us.xml",
            r#"<country id="cty-us"><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy>
               </country>"#,
        ),
        (
            "sea.xml",
            r#"<sea id="sea-pac"><name>Pacific Ocean</name>
                 <bordering country_idref="cty-us"/></sea>"#,
        ),
    ])
    .unwrap();
    let g = DataGraph::build(&c, &GraphConfig::default());
    let guides = DataGuideSet::build(&c, 0.4).unwrap();
    (c, g, guides)
}

fn path(c: &Collection, s: &str) -> PathId {
    c.paths().get_str(c.symbols(), s).unwrap()
}

fn node(c: &Collection, path_str: &str, content: &str) -> NodeId {
    let p = path(c, path_str);
    c.nodes_with_path(p).into_iter().find(|&n| c.content(n).unwrap() == content).unwrap()
}

#[test]
fn guide_links_reflect_cross_document_edges() {
    let (c, g, guides) = small_setup();
    let links = guide_links(&c, &g, &guides);
    assert_eq!(links.len(), 1);
    assert_eq!(links[0].kind, EdgeKind::IdRef);
}

#[test]
fn intra_guide_connection_uses_trie_distance() {
    let (c, _, guides) = small_setup();
    let tc = path(&c, "/country/economy/import_partners/item/trade_country");
    let pct = path(&c, "/country/economy/import_partners/item/percentage");
    let conn = guide_connection(&c, &guides, &[], tc, pct).unwrap();
    assert_eq!(conn.length, 2);
    assert!(!conn.crosses_guides);
}

#[test]
fn cross_guide_connection_uses_links() {
    let (c, g, guides) = small_setup();
    let links = guide_links(&c, &g, &guides);
    let name = path(&c, "/country/name");
    let sea_name = path(&c, "/sea/name");
    let conn = guide_connection(&c, &guides, &links, name, sea_name).unwrap();
    assert!(conn.crosses_guides);
    // name->country (1) + link (1) + bordering->sea->name (2) = 4.
    assert_eq!(conn.length, 4);
    // Without links there is no connection at all.
    assert!(guide_connection(&c, &guides, &[], name, sea_name).is_none());
}

#[test]
fn false_positives_are_guide_connections_without_instances() {
    let (c, g, guides) = small_setup();
    let links = guide_links(&c, &g, &guides);
    let tc = path(&c, "/country/economy/import_partners/item/trade_country");
    let pct = path(&c, "/country/economy/import_partners/item/percentage");
    let year = path(&c, "/country/year");
    // Instantiate only the trade_country ~ percentage connection.
    let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
    let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
    let instantiated = discover_connections(
        &c,
        &g,
        &[vec![china, pct15]],
        10,
        &mut TraversalScratch::new(),
        |_| true,
    );
    let (fp, total) =
        false_positive_connections(&c, &guides, &links, &instantiated, &[(tc, pct), (tc, year)]);
    assert_eq!(total, 2, "both pairs are connected at the summary level");
    assert_eq!(fp, 1, "only the trade_country~year pair lacks an instance");
}

#[test]
fn unknown_paths_yield_no_guide_connection() {
    let (c, _, guides) = small_setup();
    let tc = path(&c, "/country/economy/import_partners/item/trade_country");
    // A path id that no guide contains.
    let bogus = PathId(9999);
    assert!(guide_connection(&c, &guides, &[], tc, bogus).is_none());
}
