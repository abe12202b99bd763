//! Connection discovery (Sec. 6).
//!
//! After the user restricts the contexts of her query terms, there may still
//! be several structural ways to relate the matching nodes (the paper's
//! example: a `trade_country` can pair with the `percentage` of the *same*
//! `item` or with the `percentage` of a *sibling* `item`).  SEDA presents a
//! *connection summary* — pairwise connections observed between the nodes of
//! the top-k result — and lets the user pick the relevant ones.
//!
//! [`discover_connections`] extracts connections from result tuples by
//! abstracting the shortest data-graph path between every pair of matched
//! nodes into a *signature* (the sequence of contexts visited).  These are
//! instantiated connections, the ones SEDA shows the user.  The dataguide
//! summary's own connections, and the *false positives* among them that
//! Sec. 6.1 measures, are computed beside their experiment in
//! `tests/connection_false_positives.rs`.

use std::collections::BTreeMap;

use seda_datagraph::{shortest_path_with, DataGraph, EdgeKind, TraversalScratch};
use seda_xmlstore::{Collection, NodeId, PathId};

/// A connection between two contexts, abstracted from instance data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Context of the first endpoint.
    pub from_path: PathId,
    /// Context of the second endpoint.
    pub to_path: PathId,
    /// The signature: sequence of contexts visited along the shortest
    /// connecting path, endpoints included.
    pub signature: Vec<PathId>,
    /// Edge kinds used along the path (deduplicated, in first-use order).
    pub edge_kinds: Vec<EdgeKind>,
    /// Number of result tuples exhibiting this connection.
    pub support: usize,
}

impl Connection {
    /// Number of edges on the connection.
    pub fn length(&self) -> usize {
        self.signature.len().saturating_sub(1)
    }

    /// Renders the signature in `/a/b ~ /a/c` style for display.
    pub fn display(&self, collection: &Collection) -> String {
        self.signature.iter().map(|&p| collection.path_string(p)).collect::<Vec<_>>().join(" ~ ")
    }
}

/// Key identifying a connection irrespective of its support.
fn signature_key(signature: &[PathId]) -> Vec<PathId> {
    // Normalise direction so A~B and B~A are the same connection.
    let reversed: Vec<PathId> = signature.iter().rev().copied().collect();
    if reversed < signature.to_vec() {
        reversed
    } else {
        signature.to_vec()
    }
}

/// The connection of a node pair: the contexts visited along the shortest
/// data-graph path from `a` to `b` (bounded by `max_depth`), endpoints
/// included, and the edge kinds used along it (deduplicated, in first-use
/// order).  `None` when no path within the bound exists or a node on it has
/// no context.  The label probes of the path descent count in `scratch`.
/// Discovery and the complete-result connection filter both judge a pair by
/// this one signature.
pub fn connection_signature(
    collection: &Collection,
    graph: &DataGraph,
    scratch: &mut TraversalScratch,
    a: NodeId,
    b: NodeId,
    max_depth: usize,
) -> Option<(Vec<PathId>, Vec<EdgeKind>)> {
    let hops = shortest_path_with(graph, scratch, a, b, max_depth)?;
    let mut signature = Vec::with_capacity(hops.len() + 1);
    signature.push(collection.context(a).ok()?);
    let mut edge_kinds: Vec<EdgeKind> = Vec::new();
    for hop in &hops {
        signature.push(collection.context(hop.node).ok()?);
        if !edge_kinds.contains(&hop.kind) {
            edge_kinds.push(hop.kind);
        }
    }
    Some((signature, edge_kinds))
}

/// Discovers pairwise connections between the nodes of result tuples.
///
/// For every tuple and every pair of distinct member nodes, the pair's
/// [`connection_signature`] is taken; identical signatures are aggregated
/// with their support count.  Connections are returned most-frequent first.
/// The label probes of the path descents are counted in the caller's
/// `scratch`, and before each tuple `proceed(scratch.label_probes)` decides
/// whether discovery goes on: a `false` returns the connections of the
/// tuples before it.
pub fn discover_connections(
    collection: &Collection,
    graph: &DataGraph,
    tuples: &[Vec<NodeId>],
    max_depth: usize,
    scratch: &mut TraversalScratch,
    mut proceed: impl FnMut(u64) -> bool,
) -> Vec<Connection> {
    let mut aggregated: BTreeMap<Vec<PathId>, Connection> = BTreeMap::new();
    for tuple in tuples {
        if !proceed(scratch.label_probes) {
            break;
        }
        for (i, &a) in tuple.iter().enumerate() {
            for &b in &tuple[i + 1..] {
                if a == b {
                    continue;
                }
                let Some((signature, edge_kinds)) =
                    connection_signature(collection, graph, scratch, a, b, max_depth)
                else {
                    continue;
                };
                aggregated
                    .entry(signature_key(&signature))
                    .and_modify(|existing| existing.support += 1)
                    .or_insert_with(|| Connection {
                        from_path: signature[0],
                        to_path: *signature
                            .last()
                            .expect("invariant: a connection signature has both endpoints"),
                        signature,
                        edge_kinds,
                        support: 1,
                    });
            }
        }
    }
    let mut connections: Vec<Connection> = aggregated.into_values().collect();
    connections.sort_by(|a, b| b.support.cmp(&a.support).then(a.signature.cmp(&b.signature)));
    connections
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_datagraph::GraphConfig;
    use seda_xmlstore::parse_collection;

    fn setup() -> (Collection, DataGraph) {
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
        (c, g)
    }

    fn path(c: &Collection, s: &str) -> PathId {
        c.paths().get_str(c.symbols(), s).unwrap()
    }

    fn node(c: &Collection, path_str: &str, content: &str) -> NodeId {
        let p = path(c, path_str);
        c.nodes_with_path(p).into_iter().find(|&n| c.content(n).unwrap() == content).unwrap()
    }

    #[test]
    fn same_item_and_cross_item_connections_are_distinguished() {
        let (c, g) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct_same = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let pct_other = node(&c, "/country/economy/import_partners/item/percentage", "16.9");
        // Two tuples: China with its own percentage, China with Canada's.
        let tuples = vec![vec![china, pct_same], vec![china, pct_other]];
        let connections =
            discover_connections(&c, &g, &tuples, 10, &mut TraversalScratch::new(), |_| true);
        assert_eq!(
            connections.len(),
            2,
            "the paper's two ways to connect trade_country and percentage"
        );
        let lengths: Vec<usize> = connections.iter().map(Connection::length).collect();
        assert!(lengths.contains(&2), "same-item connection via the shared item node");
        assert!(lengths.contains(&4), "cross-item connection via import_partners");

        // Told to stop once probes were spent, discovery keeps the first
        // tuple's connection and reads no label for the second.
        let mut scratch = TraversalScratch::new();
        let first = discover_connections(&c, &g, &tuples, 10, &mut scratch, |spent| spent == 0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].length(), 2);
        let spent_on_first = scratch.label_probes;
        let mut alone = TraversalScratch::new();
        discover_connections(&c, &g, &tuples[..1], 10, &mut alone, |_| true);
        assert_eq!(spent_on_first, alone.label_probes);
    }

    #[test]
    fn connection_support_aggregates_identical_signatures() {
        let (c, g) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let canada = node(&c, "/country/economy/import_partners/item/trade_country", "Canada");
        let pct169 = node(&c, "/country/economy/import_partners/item/percentage", "16.9");
        let tuples = vec![vec![china, pct15], vec![canada, pct169]];
        let connections =
            discover_connections(&c, &g, &tuples, 10, &mut TraversalScratch::new(), |_| true);
        assert_eq!(connections.len(), 1, "both pairs share the same signature");
        assert_eq!(connections[0].support, 2);
        assert_eq!(connections[0].length(), 2);
    }

    #[test]
    fn connections_across_documents_record_idref_edges() {
        let (c, g) = setup();
        let us_name = node(&c, "/country/name", "United States");
        let sea_name = node(&c, "/sea/name", "Pacific Ocean");
        let tuples = vec![vec![us_name, sea_name]];
        let connections =
            discover_connections(&c, &g, &tuples, 10, &mut TraversalScratch::new(), |_| true);
        assert_eq!(connections.len(), 1);
        assert!(connections[0].edge_kinds.contains(&EdgeKind::IdRef));
        assert!(connections[0].edge_kinds.contains(&EdgeKind::ParentChild));
    }

    #[test]
    fn connection_display_renders_contexts() {
        let (c, g) = setup();
        let china = node(&c, "/country/economy/import_partners/item/trade_country", "China");
        let pct15 = node(&c, "/country/economy/import_partners/item/percentage", "15");
        let connections = discover_connections(
            &c,
            &g,
            &[vec![china, pct15]],
            10,
            &mut TraversalScratch::new(),
            |_| true,
        );
        let rendered = connections[0].display(&c);
        assert!(rendered.contains("/country/economy/import_partners/item/trade_country"));
        assert!(rendered.contains("/country/economy/import_partners/item/percentage"));
    }
}
