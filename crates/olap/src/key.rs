//! Relative XML keys (Sec. 7, after Buneman et al.).
//!
//! SEDA requires every dimension (and fact) to have a key so aggregates are
//! well defined.  A relative key for a node `n` is a list of path expressions;
//! each is either *absolute* (starts at the document root, e.g.
//! `/country/year`) or *relative* (starts at `n`, e.g. `../trade_country` or
//! `.`).  The key of the `percentage` fact in the paper is
//! `(/country, /country/year, ../trade_country)`: for every percentage node
//! the key collects the country, the year and the sibling trade country.
//!
//! A key is evaluated one way: [`RelativeKey::compile`] parses each part's
//! steps (`..`, `.` and labels) and resolves its labels to the store's
//! symbols once, and one walk over parent links and children lists, comparing
//! symbols, reaches the nodes of every part — an absolute part as child steps
//! from the root element.  The star-schema builder names a relative part's
//! dimension column through the same walk.

use seda_xmlstore::{Collection, DocId, Document, NodeId, Symbol};

use crate::table::Dictionary;

/// One component of a relative key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPart {
    /// Absolute path expression, evaluated from the document root.
    Absolute(String),
    /// Relative path expression, evaluated from the keyed node.
    Relative(String),
}

impl KeyPart {
    /// Parses a textual component: expressions starting with `/` are
    /// absolute, everything else (`.`, `..`, `../x`) is relative.
    pub fn parse(expr: &str) -> Self {
        if expr.starts_with('/') {
            KeyPart::Absolute(expr.to_string())
        } else {
            KeyPart::Relative(expr.to_string())
        }
    }

    /// The textual expression.
    pub fn expression(&self) -> &str {
        match self {
            KeyPart::Absolute(e) | KeyPart::Relative(e) => e,
        }
    }
}

/// A relative key: an ordered list of key parts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelativeKey {
    parts: Vec<KeyPart>,
}

/// The values a key evaluates to for one node, one string per key part.
pub type KeyValues = Vec<String>;

/// Problems detected while evaluating or verifying a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyViolation {
    /// A key part evaluated to no node for the given keyed node.
    MissingComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
    },
    /// A key part evaluated to more than one node.
    AmbiguousComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
        /// How many nodes it evaluated to.
        matches: usize,
    },
    /// Two distinct keyed nodes produced identical key values.
    DuplicateKey {
        /// The duplicated key values.
        values: KeyValues,
    },
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyViolation::MissingComponent { expression, node } => {
                write!(f, "key component {expression:?} evaluated to no node for {node:?}")
            }
            KeyViolation::AmbiguousComponent { expression, node, matches } => {
                write!(
                    f,
                    "key component {expression:?} evaluated to {matches} nodes for {node:?} \
                     (expected exactly one)"
                )
            }
            KeyViolation::DuplicateKey { values } => {
                write!(f, "two distinct nodes produced the same key values {values:?}")
            }
        }
    }
}

impl std::error::Error for KeyViolation {}

impl RelativeKey {
    /// Builds a key from textual component expressions, e.g.
    /// `["/country", "/country/year", "../trade_country"]`.
    pub fn parse(parts: &[&str]) -> Self {
        RelativeKey { parts: parts.iter().map(|p| KeyPart::parse(p)).collect() }
    }

    /// The components of the key.
    pub fn parts(&self) -> &[KeyPart] {
        &self.parts
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the key has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The absolute components of the key (used by the augmentation step to
    /// add missing columns such as `/country/year`).
    pub fn absolute_paths(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                KeyPart::Absolute(e) => Some(e.as_str()),
                KeyPart::Relative(_) => None,
            })
            .collect()
    }

    /// Evaluates the key for one node, returning the key values (one per
    /// part) or the first violation encountered.  Evaluating many nodes is
    /// cheaper through one compiled evaluator, as [`RelativeKey::verify`] does.
    pub fn evaluate(
        &self,
        collection: &Collection,
        node: NodeId,
    ) -> Result<KeyValues, KeyViolation> {
        let mut columns = self.dictionaries();
        let mut codes = Vec::with_capacity(self.len());
        self.compile(collection).encode(node, &mut columns, &mut codes)?;
        Ok(decode(&columns, &codes))
    }

    /// One empty dictionary per part, for [`CompiledKey::encode`].
    pub(crate) fn dictionaries<'a>(&self) -> Vec<Dictionary<'a>> {
        self.parts.iter().map(|_| Dictionary::default()).collect()
    }

    /// Resolves the key's parts against `collection` once — absolute paths and
    /// the labels of relative steps to their symbols — for evaluating many
    /// nodes.  A relative part's `/`-separated steps are `..` (the parent),
    /// `.` (the node itself) or a label (the children carrying it).
    pub(crate) fn compile<'a>(&'a self, collection: &'a Collection) -> CompiledKey<'a> {
        let symbols = collection.symbols();
        let parts = self
            .parts
            .iter()
            .map(|part| match part {
                KeyPart::Absolute(expr) => {
                    let labels = expr.split('/').filter(|label| !label.is_empty());
                    let labels: Option<Vec<Symbol>> = labels.map(|l| symbols.get(l)).collect();
                    CompiledPart::Absolute(labels.and_then(|labels| {
                        let (&root, below) = labels.split_first()?;
                        Some((root, below.iter().map(|&label| Step::Child(Some(label))).collect()))
                    }))
                }
                KeyPart::Relative(expr) => CompiledPart::Relative(
                    expr.split('/')
                        .filter(|step| !step.is_empty())
                        .map(|step| match step {
                            ".." => Step::Parent,
                            "." => Step::SelfNode,
                            label => Step::Child(symbols.get(label)),
                        })
                        .collect(),
                ),
            })
            .collect();
        CompiledKey {
            key: self,
            collection,
            parts,
            document: None,
            absolute: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Verifies that the key uniquely identifies every node in `nodes`
    /// ("the system automatically verifies the keys by computing them for
    /// every cni in R(q) and checking their uniqueness").  Returns all
    /// violations found; an empty vector means the key is valid.
    pub fn verify(&self, collection: &Collection, nodes: &[NodeId]) -> Vec<KeyViolation> {
        let mut violations = Vec::new();
        let mut seen: std::collections::HashMap<Vec<u32>, NodeId> =
            std::collections::HashMap::new();
        let mut compiled = self.compile(collection);
        let mut columns = self.dictionaries();
        let mut codes = Vec::with_capacity(self.len());
        for &node in nodes {
            codes.clear();
            match compiled.encode(node, &mut columns, &mut codes) {
                Ok(()) => match seen.get(&codes) {
                    Some(&previous) if previous != node => violations
                        .push(KeyViolation::DuplicateKey { values: decode(&columns, &codes) }),
                    Some(_) => {}
                    None => drop(seen.insert(codes.clone(), node)),
                },
                Err(v) => violations.push(v),
            }
        }
        violations
    }
}

/// The key values a row of codes stands for.
fn decode(columns: &[Dictionary<'_>], codes: &[u32]) -> KeyValues {
    columns.iter().zip(codes).map(|(column, &code)| column.value(code).to_string()).collect()
}

/// One key part resolved against a collection.
#[derive(Debug)]
enum CompiledPart {
    /// The root element's label and the child steps below it; `None` for a
    /// path no node of the collection can have (a label no element carries,
    /// or no label at all).
    Absolute(Option<(Symbol, Vec<Step>)>),
    /// The steps from the keyed node.
    Relative(Vec<Step>),
}

/// One step of a relative part, its label resolved.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `..`
    Parent,
    /// `.`
    SelfNode,
    /// A label; `None` for one no element of the collection carries.
    Child(Option<Symbol>),
}

/// A [`RelativeKey`] resolved against one collection
/// ([`RelativeKey::compile`]).  It encodes a node's key as one id per part
/// from that part's [`Dictionary`], and remembers what the absolute parts
/// encode to in the document evaluated last: nodes that arrive grouped by
/// document (as sorted fact instances do) resolve and intern each absolute
/// part once per document, by descending from the root along the path's
/// labels.  Nothing is allocated per node but a value new to a dictionary.
#[derive(Debug)]
pub(crate) struct CompiledKey<'a> {
    key: &'a RelativeKey,
    collection: &'a Collection,
    parts: Vec<CompiledPart>,
    /// The document `absolute` describes.
    document: Option<DocId>,
    /// Per key part: an absolute part's value id in `document`, or how many
    /// nodes it matched when that is not one; unused for relative parts.
    absolute: Vec<Result<u32, usize>>,
    /// Scratch frontiers of the descents and relative steps.
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl<'a> CompiledKey<'a> {
    /// Appends `node`'s key to `codes`, one id per part from the part's
    /// dictionary in `columns`, or returns the first violation, leaving
    /// `codes` as it was.  `columns` must be the same dictionaries on every
    /// call: the absolute parts' ids are remembered per document.
    pub(crate) fn encode(
        &mut self,
        node: NodeId,
        columns: &mut [Dictionary<'a>],
        codes: &mut Vec<u32>,
    ) -> Result<(), KeyViolation> {
        let Ok(document) = self.collection.document(node.doc) else {
            return Err(KeyViolation::MissingComponent {
                expression: "<document>".to_string(),
                node,
            });
        };
        if self.document != Some(node.doc) {
            self.document = Some(node.doc);
            self.absolute.clear();
            for (part, column) in self.parts.iter().zip(columns.iter_mut()) {
                let root = document.node(document.root()).ok().map(|root| root.name);
                let (matches, first) = match part {
                    CompiledPart::Absolute(Some((label, steps))) if root == Some(*label) => {
                        walk(document, document.root(), steps, &mut self.frontier, &mut self.next)
                    }
                    _ => (0, 0),
                };
                self.absolute.push(match matches {
                    1 => Ok(column.intern(document.content_cow(first))),
                    matches => Err(matches),
                });
            }
        }
        let start = codes.len();
        for (i, part) in self.parts.iter().enumerate() {
            let encoded = match part {
                CompiledPart::Absolute(_) => self.absolute[i],
                CompiledPart::Relative(steps) => {
                    match walk(document, node.node, steps, &mut self.frontier, &mut self.next) {
                        (1, reached) => Ok(columns[i].intern(document.content_cow(reached))),
                        (matches, _) => Err(matches),
                    }
                }
            };
            let matches = match encoded {
                Ok(code) => {
                    codes.push(code);
                    continue;
                }
                Err(matches) => matches,
            };
            codes.truncate(start);
            let expression = self.key.parts[i].expression().to_string();
            return Err(match matches {
                0 => KeyViolation::MissingComponent { expression, node },
                matches => KeyViolation::AmbiguousComponent { expression, node, matches },
            });
        }
        Ok(())
    }

    /// The first node, in document order, that part `part` reaches from
    /// `node` when the part is relative; `None` when it reaches none or is
    /// absolute.
    pub(crate) fn first_reached(&mut self, part: usize, node: NodeId) -> Option<NodeId> {
        let CompiledPart::Relative(steps) = &self.parts[part] else { return None };
        let document = self.collection.document(node.doc).ok()?;
        match walk(document, node.node, steps, &mut self.frontier, &mut self.next) {
            (0, _) => None,
            (_, first) => Some(NodeId::new(node.doc, first)),
        }
    }
}

/// The nodes `steps` reach from `start`, each step taken from every node of
/// the frontier before, in the two scratch frontiers: how many, and the first
/// in document order.  An absolute part is its child steps from the root.
fn walk(
    document: &Document,
    start: u32,
    steps: &[Step],
    frontier: &mut Vec<u32>,
    next: &mut Vec<u32>,
) -> (usize, u32) {
    frontier.clear();
    frontier.push(start);
    for step in steps {
        next.clear();
        for &current in frontier.iter() {
            match *step {
                Step::Parent => next.extend(document.parent(current)),
                Step::SelfNode => next.push(current),
                Step::Child(label) => next.extend(
                    document
                        .children(current)
                        .iter()
                        .filter(|&&child| Some(document.node_unchecked(child).name) == label),
                ),
            }
        }
        next.sort_unstable();
        next.dedup();
        std::mem::swap(frontier, next);
    }
    (frontier.len(), frontier.first().copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn us_doc() -> Collection {
        parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap()
    }

    fn percentage_nodes(c: &Collection) -> Vec<NodeId> {
        let p = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        c.nodes_with_path(p)
    }

    #[test]
    fn paper_key_for_percentage_fact_evaluates() {
        let c = us_doc();
        let key = RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]);
        let nodes = percentage_nodes(&c);
        let v0 = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(v0, vec!["United States", "2006", "China"]);
        let v1 = key.evaluate(&c, nodes[1]).unwrap();
        assert_eq!(v1, vec!["United States", "2006", "Canada"]);
        assert!(key.verify(&c, &nodes).is_empty(), "the key uniquely identifies both percentages");
    }

    #[test]
    fn dropping_the_relative_part_makes_the_key_ambiguous_across_nodes() {
        let c = us_doc();
        // Without ../trade_country the two percentage nodes collide: this is
        // exactly the paper's argument for the year/trade_country key columns.
        let key = RelativeKey::parse(&["/country/name", "/country/year"]);
        let nodes = percentage_nodes(&c);
        let violations = key.verify(&c, &nodes);
        assert!(violations.iter().any(|v| matches!(v, KeyViolation::DuplicateKey { .. })));
    }

    #[test]
    fn missing_and_ambiguous_components_are_reported() {
        let c = us_doc();
        let nodes = percentage_nodes(&c);
        let missing = RelativeKey::parse(&["/country/population"]);
        assert!(matches!(
            missing.evaluate(&c, nodes[0]),
            Err(KeyViolation::MissingComponent { .. })
        ));
        // /country/economy/import_partners/item is ambiguous at document level
        // (two items exist).
        let ambiguous = RelativeKey::parse(&["/country/economy/import_partners/item"]);
        assert!(matches!(
            ambiguous.evaluate(&c, nodes[0]),
            Err(KeyViolation::AmbiguousComponent { matches: 2, .. })
        ));
    }

    /// The nodes a relative expression reaches from `node`, comparing labels
    /// as strings: a frontier per step, sorted and deduplicated.
    fn walk_by_name(collection: &Collection, node: NodeId, expr: &str) -> Vec<u32> {
        let document = collection.document(node.doc).unwrap();
        let mut frontier = vec![node.node];
        for step in expr.split('/').filter(|step| !step.is_empty()) {
            let mut next: Vec<u32> = Vec::new();
            for &current in &frontier {
                match step {
                    "." => next.push(current),
                    ".." => next.extend(document.parent(current)),
                    label => next.extend(document.children(current).iter().filter(|&&child| {
                        collection.node_name(NodeId::new(node.doc, child)).unwrap() == label
                    })),
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        frontier
    }

    /// The evaluation as it was before keys were compiled: every part resolved
    /// from its text and matched by a scan of the document, per node.
    fn evaluate_uncompiled(
        key: &RelativeKey,
        collection: &Collection,
        node: NodeId,
    ) -> Result<KeyValues, KeyViolation> {
        let document = collection.document(node.doc).unwrap();
        let mut values = Vec::new();
        for part in key.parts() {
            let matches: Vec<u32> = match part {
                KeyPart::Absolute(expr) => collection
                    .paths()
                    .get_str(collection.symbols(), expr)
                    .map(|path| document.nodes_with_path(path))
                    .unwrap_or_default(),
                KeyPart::Relative(expr) => walk_by_name(collection, node, expr),
            };
            let expression = part.expression().to_string();
            match matches.len() {
                0 => return Err(KeyViolation::MissingComponent { expression, node }),
                1 => values.push(document.content(matches[0])),
                matches => {
                    return Err(KeyViolation::AmbiguousComponent { expression, node, matches })
                }
            }
        }
        Ok(values)
    }

    #[test]
    fn a_compiled_key_evaluates_like_the_uncompiled_one_across_documents() {
        let c = parse_collection(vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            // No year; two names.
            (
                "xx.xml",
                r#"<country><name>A</name><name>B</name>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>1</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "mx.xml",
                r#"<country><name>Mexico</name><year>2005</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap();
        let mut nodes = percentage_nodes(&c);
        // Back to the first document after the others: the per-document
        // memory must follow the node, not the call order.
        nodes.push(nodes[0]);
        let keys = [
            vec!["/country/name", "/country/year", "../trade_country"],
            vec!["/country/year", "/country/name", "."],
            vec!["/country/economy/import_partners/item", "/country/name"],
            vec!["/country/population", "/country/name"],
            vec!["/nowhere/at/all"],
            vec!["../missing", "/country/name"],
            vec![".."],
        ];
        for parts in keys {
            let key = RelativeKey::parse(&parts);
            let mut compiled = key.compile(&c);
            let mut columns = key.dictionaries();
            for &node in &nodes {
                let expected = evaluate_uncompiled(&key, &c, node);
                let mut codes = vec![7];
                let encoded = compiled.encode(node, &mut columns, &mut codes);
                let values = encoded.map(|()| decode(&columns, &codes[1..]));
                assert_eq!(values, expected, "{parts:?} at {node:?}");
                assert_eq!(codes.len(), if expected.is_ok() { 1 + key.len() } else { 1 });
                assert_eq!(key.evaluate(&c, node), expected, "{parts:?} at {node:?}");
            }
            // Same violations in the same order.
            let mut seen = std::collections::HashMap::new();
            let mut expected = Vec::new();
            for &node in &nodes {
                match evaluate_uncompiled(&key, &c, node) {
                    Ok(values) => match seen.get(&values) {
                        Some(&previous) if previous != node => {
                            expected.push(KeyViolation::DuplicateKey { values })
                        }
                        Some(_) => {}
                        None => drop(seen.insert(values, node)),
                    },
                    Err(violation) => expected.push(violation),
                }
            }
            assert_eq!(key.verify(&c, &nodes), expected, "{parts:?}");
        }
    }

    #[test]
    fn self_relative_component_keys_on_own_content() {
        let c = us_doc();
        let tc_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let nodes = c.nodes_with_path(tc_path);
        let key = RelativeKey::parse(&["/country/name", "/country/year", "."]);
        assert!(key.verify(&c, &nodes).is_empty());
        let values = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(values[2], "China");
    }

    #[test]
    fn key_part_parsing_distinguishes_absolute_and_relative() {
        assert_eq!(KeyPart::parse("/country"), KeyPart::Absolute("/country".into()));
        assert_eq!(
            KeyPart::parse("../trade_country"),
            KeyPart::Relative("../trade_country".into())
        );
        assert_eq!(KeyPart::parse("."), KeyPart::Relative(".".into()));
        let key = RelativeKey::parse(&["/country", "/country/year", "../trade_country"]);
        assert_eq!(key.len(), 3);
        assert_eq!(key.absolute_paths(), vec!["/country", "/country/year"]);
    }
}
